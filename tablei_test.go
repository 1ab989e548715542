package prochecker

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"prochecker/internal/core/props"
)

// tableI is the paper's Table I written out by hand: for each attack,
// the profiles on which it must be detected; on the others it must not
// be. P1-P3 and the prior attacks are standards-level flaws, present on
// every profile. I1-I6 are implementation issues, present only where the
// paper reports them (srsLTE / OAI; the conformant profile stands in for
// the commercial stack, which has none of them). The paper marks the
// TMSI-reallocation row "-" (3G-only); its GUTI-reallocation stand-in is
// detectable only on the two open-source stacks.
var tableI = map[string][]Implementation{
	props.AttackP1:            Implementations(),
	props.AttackP2:            Implementations(),
	props.AttackP3:            Implementations(),
	props.AttackI1:            {SRSLTE, OAI},
	props.AttackI2:            {OAI},
	props.AttackI3:            {SRSLTE},
	props.AttackI4:            {SRSLTE},
	props.AttackI5:            {OAI},
	props.AttackI6:            {SRSLTE, OAI},
	props.AttackAuthSyncDoS:   Implementations(),
	props.AttackKickOff:       Implementations(),
	props.AttackPanic:         Implementations(),
	props.AttackTMSILink:      {SRSLTE, OAI},
	props.AttackIMSIPaging:    Implementations(),
	props.AttackSyncFailLink:  Implementations(),
	props.AttackAuthRelay:     Implementations(),
	props.AttackNumb:          Implementations(),
	props.AttackTAUDowngrade:  Implementations(),
	props.AttackDenialAll:     Implementations(),
	props.AttackPagingHijack:  Implementations(),
	props.AttackDetachDown:    Implementations(),
	props.AttackServiceDenial: Implementations(),
	props.AttackGUTILink:      Implementations(),
}

// TestTableI asserts the paper's findings end to end: one full CheckAll
// per profile, and each of the 23 Table I attacks (P1-P3, I1-I6 and the
// 14 prior attacks) is found by some property that props.Detecting
// lists for it exactly on the profiles where the paper reports it.
func TestTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalogue run on every profile")
	}
	attacks := make([]string, 0, len(tableI))
	for a := range tableI {
		attacks = append(attacks, a)
	}
	sort.Strings(attacks)
	if len(attacks) != 23 {
		t.Fatalf("Table I has %d attacks, want 23", len(attacks))
	}
	for _, impl := range Implementations() {
		t.Run(string(impl), func(t *testing.T) {
			a, err := Analyze(impl)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			results, err := a.CheckAll()
			if err != nil {
				t.Fatalf("CheckAll: %v", err)
			}
			attack := make(map[string]bool, len(results))
			for _, r := range results {
				attack[r.ID] = r.AttackFound
			}
			for _, a := range attacks {
				var via []string
				for _, p := range props.Detecting(a) {
					if attack[p.ID] {
						via = append(via, p.ID)
					}
				}
				switch want := slices.Contains(tableI[a], impl); {
				case want && len(via) == 0:
					t.Errorf("attack %s not detected", a)
				case !want && len(via) > 0:
					t.Errorf("attack %s detected (via %s), but the paper does not report it on %s",
						a, strings.Join(via, ","), impl)
				}
			}
		})
	}
}
