package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"prochecker/internal/core/props"
)

// verdict is one property's outcome as the oracle sees it.
type verdict struct {
	ID       string `json:"id"`
	Attack   bool   `json:"attack"`
	Verified bool   `json:"verified"`
}

// selection is a named property selection with its pinned verdict
// digests.
type selection struct {
	name string
	ids  []string
	// digests pins, per profile, the digest of the selection's verdicts
	// as the program produced them when the benchmark was defined.
	digests map[string]string
}

const (
	conformant = "conformant"
	srsLTE     = "srsLTE"
	oai        = "OAI"
)

var allProfiles = []string{conformant, srsLTE, oai}

// tableI is the paper's Table I written out by hand: for each attack,
// the profiles on which it must be detected; on the others it must not
// be. P1-P3 and the prior attacks are standards-level flaws, present on
// every profile. I1-I6 are implementation issues, present only where the
// paper reports them (srsLTE / OAI; the conformant profile stands in for
// the commercial stack, which has none of them). The paper marks the
// TMSI-reallocation row "-" (3G-only); its GUTI-reallocation stand-in is
// detectable only on the two open-source stacks.
var tableI = map[string][]string{
	props.AttackP1:            allProfiles,
	props.AttackP2:            allProfiles,
	props.AttackP3:            allProfiles,
	props.AttackI1:            {srsLTE, oai},
	props.AttackI2:            {oai},
	props.AttackI3:            {srsLTE},
	props.AttackI4:            {srsLTE},
	props.AttackI5:            {oai},
	props.AttackI6:            {srsLTE, oai},
	props.AttackAuthSyncDoS:   allProfiles,
	props.AttackKickOff:       allProfiles,
	props.AttackPanic:         allProfiles,
	props.AttackTMSILink:      {srsLTE, oai},
	props.AttackIMSIPaging:    allProfiles,
	props.AttackSyncFailLink:  allProfiles,
	props.AttackAuthRelay:     allProfiles,
	props.AttackNumb:          allProfiles,
	props.AttackTAUDowngrade:  allProfiles,
	props.AttackDenialAll:     allProfiles,
	props.AttackPagingHijack:  allProfiles,
	props.AttackDetachDown:    allProfiles,
	props.AttackServiceDenial: allProfiles,
	props.AttackGUTILink:      allProfiles,
}

// fullCatalogue is the complete 62-property selection of -check all.
var fullCatalogue = selection{
	name: "all",
	ids:  catalogueIDs(func(props.Property) bool { return true }),
	digests: map[string]string{
		conformant: "1027cb7a4ca9099e",
		srsLTE:     "6052b1ef53cc3e0e",
	},
}

// campaignSelection is the 17 properties the campaign selects: every
// property that is not model-checked (V04-V08, V11-V21, V23), so no cell
// explores a state space.
var campaignSelection = selection{
	name: "campaign",
	ids:  catalogueIDs(func(p props.Property) bool { return p.Kind != props.KindMC }),
	digests: map[string]string{
		conformant: "0a7b2fd1236bd6bb",
		srsLTE:     "27374510d5b262bb",
		oai:        "27374510d5b262bb",
	},
}

func catalogueIDs(keep func(props.Property) bool) []string {
	var ids []string
	for _, p := range props.Catalogue() {
		if keep(p) {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// digest fingerprints a verdict list: property ID, attack and verified
// bits, in property-ID order.
func digest(vs []verdict) string {
	sorted := append([]verdict(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	h := sha256.New()
	for _, v := range sorted {
		fmt.Fprintf(h, "%s attack=%t verified=%t\n", v.ID, v.Attack, v.Verified)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// expected reports whether the oracle expects the attack on the profile;
// flip inverts the expectation for one attack.
func expected(attack, profile, flip string) bool {
	want := false
	for _, p := range tableI[attack] {
		if p == profile {
			want = true
		}
	}
	if attack == flip {
		want = !want
	}
	return want
}

// checkVerdicts returns every way the verdicts of one profile disagree
// with the oracle: a missing, extra or inconclusive verdict, a Table I
// cell that differs from the paper (checked through props.Detecting),
// and a verdict-set digest that differs from the pinned one.
func checkVerdicts(profile string, sel selection, got []verdict, flip string) []string {
	var problems []string
	byID := make(map[string]verdict, len(got))
	for _, v := range got {
		byID[v.ID] = v
		if !v.Attack && !v.Verified {
			problems = append(problems, fmt.Sprintf("%s/%s: inconclusive verdict", profile, v.ID))
		}
	}
	if len(got) != len(sel.ids) {
		problems = append(problems, fmt.Sprintf("%s: %d verdicts, want %d", profile, len(got), len(sel.ids)))
	}
	selected := make(map[string]bool, len(sel.ids))
	for _, id := range sel.ids {
		selected[id] = true
		if _, ok := byID[id]; !ok {
			problems = append(problems, fmt.Sprintf("%s/%s: verdict missing", profile, id))
		}
	}
	full := len(sel.ids) == len(props.Catalogue())
	for attack := range tableI {
		detected, checked := false, false
		var via []string
		for _, p := range props.Detecting(attack) {
			if !selected[p.ID] {
				continue
			}
			checked = true
			if byID[p.ID].Attack {
				detected = true
				via = append(via, p.ID)
			}
		}
		want := expected(attack, profile, flip)
		switch {
		case !checked:
		case detected && !want:
			problems = append(problems, fmt.Sprintf("%s: Table I attack %s detected (via %s) but the paper does not report it",
				profile, attack, strings.Join(via, ",")))
		case !detected && want && full:
			// A partial selection may leave out the detecting property,
			// so a miss is only conclusive over the full catalogue.
			problems = append(problems, fmt.Sprintf("%s: Table I attack %s not detected", profile, attack))
		}
	}
	if pinned, ok := sel.digests[profile]; !ok {
		problems = append(problems, fmt.Sprintf("%s: no pinned %s verdict digest", profile, sel.name))
	} else if d := digest(got); d != pinned {
		problems = append(problems, fmt.Sprintf("%s: %s verdict digest %s, pinned %s", profile, sel.name, d, pinned))
	}
	return problems
}
