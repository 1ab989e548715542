package jobs

import (
	"encoding/json"
	"testing"
)

// TestSpecKeyPinned pins the content address of two normalized specs.
// Stored results and WAL records are found again by these keys, so a
// change to Spec's fields or their encoding that moves them turns every
// stored result into a cache miss.
func TestSpecKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		key  string
	}{
		{
			name: "default full catalogue",
			spec: Spec{Impl: "srsLTE", Catalogue: "2778f3b2c25d"},
			key:  "51d8c3b6eb4340deae991d2d52810083dd44f988b88aac72f48fa1dcde4a4fd9",
		},
		{
			name: "property selection with faults",
			spec: Spec{
				Impl:       "OAI",
				Faults:     "drop=0.05,corrupt=0.02",
				Seed:       42,
				Properties: []string{"S06", "S07"},
				Catalogue:  "2778f3b2c25d",
			},
			key: "61aae2b219bd120f5a16292fbca32128d704100259300cc768dc1e09fe91ab99",
		},
	} {
		if got := tc.spec.Key(); got != tc.key {
			t.Errorf("%s: Key() = %s, want %s", tc.name, got, tc.key)
		}
	}
}

// TestSpecDecodeIgnoresRetiredFields: a submission or stored record
// that still carries a field Spec no longer has (a retired boolean
// switch, say) decodes into the spec without it, and so shares the
// default spec's key.
func TestSpecDecodeIgnoresRetiredFields(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"impl":"srsLTE","seed":0,"catalogue":"2778f3b2c25d","retired_switch":true}`), &s); err != nil {
		t.Fatalf("decoding a spec with a retired field: %v", err)
	}
	want := Spec{Impl: "srsLTE", Catalogue: "2778f3b2c25d"}
	if s.Key() != want.Key() {
		t.Fatalf("Key() = %s, want the default spec's %s", s.Key(), want.Key())
	}
}
