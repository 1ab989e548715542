package mc

// Hooks for the external tests (package mc_test), which need graph
// internals next to the property catalogue that imports mc.

var (
	ComposedModel = composedModel
	GuardReplay   = guardReplay
	ExploreGraph  = explore
	// DeriveOneLevel reports what one derived level allocates.
	DeriveOneLevel = deriveOneLevel
)
