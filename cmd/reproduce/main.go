// Command reproduce regenerates every table and figure of the paper's
// evaluation section from the library:
//
//	reproduce -table1       Table I  (attack detection matrix)
//	reproduce -table2       Table II (LTEInspector-common properties)
//	reproduce -fig8         Figure 8 (per-property verification time)
//	reproduce -refinement   RQ2 refinement comparison (incl. Figure 7)
//	reproduce -coverage     NAS coverage (Section VI)
//	reproduce -sqn          SQN staleness analysis (Section VII-A, Fig 5)
//	reproduce -flows        NAS procedure message flows (Figure 1)
//	reproduce -all          everything above
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"prochecker/internal/channel"
	"prochecker/internal/conformance"
	"prochecker/internal/core/extract"
	"prochecker/internal/core/threat"
	"prochecker/internal/mc"
	"prochecker/internal/nas"
	"prochecker/internal/report"
	"prochecker/internal/spec"
	"prochecker/internal/sqn"
	"prochecker/internal/ue"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	table1 := fs.Bool("table1", false, "regenerate Table I")
	table2 := fs.Bool("table2", false, "regenerate Table II")
	fig8 := fs.Bool("fig8", false, "regenerate Figure 8")
	refinement := fs.Bool("refinement", false, "regenerate the RQ2 refinement comparison")
	coverage := fs.Bool("coverage", false, "regenerate the coverage numbers")
	sqnFlag := fs.Bool("sqn", false, "regenerate the SQN staleness analysis")
	flows := fs.Bool("flows", false, "regenerate the NAS procedure flows (Figure 1)")
	verdicts := fs.Bool("verdicts", false, "run the full 62-property catalogue per implementation")
	esm := fs.Bool("esm", false, "extract the ESM (session management) layer separately (challenge C4)")
	deviations := fs.Bool("deviations", false, "diff each open-source profile's FSM against the conformant one")
	all := fs.Bool("all", false, "regenerate everything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *all {
		*table1, *table2, *fig8, *refinement, *coverage, *sqnFlag, *flows, *esm = true, true, true, true, true, true, true, true
		*deviations = true
	}
	any := false

	if *esm {
		any = true
		if err := printESM(); err != nil {
			return err
		}
	}

	if *flows {
		any = true
		if err := printFlows(); err != nil {
			return err
		}
	}
	if *deviations {
		any = true
		out, err := report.RenderDeviations()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if *sqnFlag {
		any = true
		if err := printSQN(); err != nil {
			return err
		}
	}
	if *coverage {
		any = true
		out, err := report.RenderCoverage()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if *refinement {
		any = true
		res, err := report.Refinement(ue.ProfileConformant)
		if err != nil {
			return err
		}
		fmt.Println(report.RenderRefinement(res))
	}
	if *table2 {
		any = true
		fmt.Println(report.RenderTableII())
	}
	if *table1 {
		any = true
		profiles := []ue.Profile{ue.ProfileConformant, ue.ProfileSRS, ue.ProfileOAI}
		rows, err := report.TableI(profiles)
		if err != nil {
			return err
		}
		fmt.Println(report.RenderTableI(rows, profiles))
	}
	if *fig8 {
		any = true
		rows, err := report.Figure8(ue.ProfileConformant)
		if err != nil {
			return err
		}
		fmt.Println(report.RenderFigure8(rows))
		sizes, err := modelSizes(ue.ProfileConformant)
		if err != nil {
			return err
		}
		fmt.Println(sizes)
	}
	if *verdicts {
		any = true
		for _, p := range []ue.Profile{ue.ProfileConformant, ue.ProfileSRS, ue.ProfileOAI} {
			vs, err := report.VerifyAllProperties(p)
			if err != nil {
				return err
			}
			fmt.Println(report.RenderVerdicts(p, vs))
		}
	}
	if !any {
		fs.Usage()
	}
	return nil
}

// printFlows reproduces Figure 1: the NAS-layer procedure overview, as
// actual message flows driven through the live implementations.
// modelSizes renders the reachable state count of each Figure 8 model,
// which is what compares the models: the per-property counts are search
// effort. Each count is one full build, made by a never-fires check
// that no rule matches. It is kept out of report.Figure8, whose
// per-property times BenchmarkFigure8 measures.
func modelSizes(profile ue.Profile) (string, error) {
	pro, err := report.BuildModel(profile)
	if err != nil {
		return "", err
	}
	lte, err := report.LTEInspectorModel()
	if err != nil {
		return "", err
	}
	never := mc.NeverFires{PropName: "reachable", Match: func(string) bool { return false }}
	var n [2]int
	for i, c := range []*threat.Composed{pro.Composed, lte} {
		res, err := mc.CheckContext(context.Background(), c.System, never, mc.Options{})
		if err != nil {
			return "", err
		}
		n[i] = res.StatesExplored
	}
	return fmt.Sprintf("model size: Pro %d reachable states, LTE %d reachable states", n[0], n[1]), nil
}

func printFlows() error {
	env, err := conformance.NewEnv(ue.ProfileConformant, nil)
	if err != nil {
		return err
	}
	if err := env.Attach(); err != nil {
		return err
	}
	cmd, err := env.MME.StartGUTIReallocation()
	if err != nil {
		return err
	}
	env.SendDownlink(cmd)
	page, err := env.MME.Page(false)
	if err != nil {
		return err
	}
	env.SendDownlink(page)
	tau, err := env.UE.StartTAU(conformance.DefaultTAC + 1)
	if err != nil {
		return err
	}
	env.SendUplink(tau)

	fmt.Println("FIGURE 1: NAS layer procedures (as executed by the live implementations)")
	fmt.Println()
	render := func(dir channel.Direction, arrow string) {
		for _, p := range env.Link.Captured(dir) {
			label := "(" + p.Header.String() + ")"
			if p.Header == nas.HeaderPlain {
				if m, err := nas.Unmarshal(p.Payload); err == nil {
					label = string(m.Name())
				}
			}
			fmt.Printf("  UE %s MME  %s\n", arrow, label)
		}
	}
	fmt.Println("uplink:")
	render(channel.Uplink, "-->")
	fmt.Println("downlink:")
	render(channel.Downlink, "<--")
	fmt.Println()
	return nil
}

// printESM demonstrates challenge C4: the same conformance log, dissected
// with the ESM signature sets, yields the session-management machine.
func printESM() error {
	fmt.Println("Per-layer extraction (challenge C4): the ESM machine from the same log")
	fmt.Println()
	rep, err := conformance.RunSuite(ue.ProfileConformant, true)
	if err != nil {
		return err
	}
	emm, err := extract.Model(rep.Log, spec.UESignatures(spec.StyleClosed), extract.Options{Name: "UE/EMM"})
	if err != nil {
		return err
	}
	esm, err := extract.Model(rep.Log, spec.ESMSignatures(spec.StyleClosed), extract.Options{Name: "UE/ESM"})
	if err != nil {
		return err
	}
	s, c, a, tr := emm.Size()
	fmt.Printf("EMM layer: %d states, %d conditions, %d actions, %d transitions\n", s, c, a, tr)
	s, c, a, tr = esm.Size()
	fmt.Printf("ESM layer: %d states, %d conditions, %d actions, %d transitions\n\n", s, c, a, tr)
	for _, t := range esm.Transitions() {
		fmt.Println(" ", t)
	}
	fmt.Println()
	fmt.Println("ESM-layer property verdicts:")
	for _, p := range []ue.Profile{ue.ProfileConformant, ue.ProfileSRS, ue.ProfileOAI} {
		verdicts, err := report.ESMVerdicts(p)
		if err != nil {
			return err
		}
		attacks := 0
		for _, v := range verdicts {
			if v.Detected {
				attacks++
			}
		}
		fmt.Printf("  %-12s %d/%d violated\n", p, attacks, len(verdicts))
	}
	fmt.Println()
	return nil
}

// printSQN reproduces the Section VII-A analysis and Figure 5's scheme.
func printSQN() error {
	fmt.Println("SQN staleness analysis (TS 33.102 Annex C, Section VII-A)")
	fmt.Println()
	cfg := sqn.DefaultConfig()
	for _, rate := range []float64{5, 10, 20} {
		rep, err := sqn.Aging(cfg, rate)
		if err != nil {
			return err
		}
		fmt.Printf("  IND bits = %d  (SQN array of %d slots): up to %d stale authentication_requests accepted\n",
			rep.INDBits, rep.ArraySize, rep.MaxStaleAccepted)
		fmt.Printf("  at %.0f auth requests/day the stale window is %.1f days\n\n",
			rep.AuthRequestsPerDay, rep.StaleWindowDays)
	}
	for _, captured := range []int{1, 10, 31, 100} {
		accepted, err := sqn.StaleReplayDemo(cfg, captured)
		if err != nil {
			return err
		}
		fmt.Printf("  capture-and-drop %3d vectors -> %2d stale replays accepted\n", captured, accepted)
	}
	withL := sqn.Config{INDBits: sqn.DefaultINDBits, FreshnessLimit: 2}
	accepted, err := sqn.StaleReplayDemo(withL, 31)
	if err != nil {
		return err
	}
	fmt.Printf("  with the optional freshness limit L=2 enforced: %d accepted\n\n", accepted)
	return nil
}
