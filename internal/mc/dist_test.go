// Differential tests for the exploration storage layer: whatever the
// worker count, the engine must return byte-identical verdicts,
// StatesExplored counts and counterexample traces to the sequential
// reference. Run under -race in CI, these also exercise the
// frozen-index reads of the parallel expansion phase.
package mc_test

import (
	"context"
	"testing"

	"prochecker/internal/mc"
)

// TestWorkersMatchSequentialOnCatalogue sweeps worker counts over the
// full threat-composed model and catalogue: ids, verdicts and traces
// must not depend on how the parallel expansion splits the frontier.
func TestWorkersMatchSequentialOnCatalogue(t *testing.T) {
	sys := composedSystem(t)
	list := catalogueMC(t)
	for _, workers := range []int{1, 2, 8} {
		engine := mc.NewEngine()
		opts := mc.Options{Workers: workers}
		for _, p := range list {
			got, err := engine.CheckContext(context.Background(), sys, p, opts)
			if err != nil {
				t.Fatalf("workers=%d %s: engine error: %v", workers, p.Name(), err)
			}
			want := mc.CheckSequential(sys, p, mc.Options{})
			assertSameResult(t, p.Name(), got, want)
		}
	}
}
