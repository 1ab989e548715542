package prochecker

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"prochecker/internal/channel"
	"prochecker/internal/core/props"
	"prochecker/internal/jobs"
)

// The job subsystem's data types, re-exported for the service API:
// a JobSpec is one analysis job's content-addressed identity, a
// JobResult its deterministic verdict set.
type (
	// JobSpec describes one batch-analysis job.
	JobSpec = jobs.Spec
	// JobResult is a completed job's verdict set.
	JobResult = jobs.Result
	// JobVerdict is one property's outcome inside a JobResult.
	JobVerdict = jobs.Verdict
	// JobRetryPolicy bounds how the service retries transiently
	// failing jobs (attempts, backoff, jitter seed).
	JobRetryPolicy = jobs.RetryPolicy
	// JobRecoveryStats summarises what a write-ahead-log replay
	// reconstructed at service startup.
	JobRecoveryStats = jobs.RecoveryStats
)

// catalogueVersion memoises the property-catalogue fingerprint.
var catalogueVersion struct {
	once sync.Once
	v    string
}

// CatalogueVersion fingerprints the current 62-property catalogue
// (IDs, kinds and requirement texts). It participates in every job key,
// so editing the catalogue invalidates all cached results at once.
func CatalogueVersion() string {
	catalogueVersion.once.Do(func() {
		h := sha256.New()
		for _, p := range props.Catalogue() {
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00", p.ID, p.Kind, p.Text)
		}
		catalogueVersion.v = hex.EncodeToString(h.Sum(nil))[:12]
	})
	return catalogueVersion.v
}

// NormalizeJobSpec canonicalises and validates a job spec so that
// equivalent submissions hash to one key: the implementation name is
// resolved case-insensitively, the fault spec is parsed and re-rendered
// in canonical form (zero-probability stages dropped, "" for benign),
// the property selection is sorted, deduplicated and checked against
// the catalogue, and the catalogue fingerprint is stamped in. It is
// idempotent — the jobs.Service uses it as its Normalize hook.
func NormalizeJobSpec(s JobSpec) (JobSpec, error) {
	impl, err := ParseImplementation(s.Impl)
	if err != nil {
		return s, err
	}
	s.Impl = string(impl)
	cfg, err := channel.ParseFaultSpec(s.Faults, s.Seed)
	if err != nil {
		return s, err
	}
	if cfg.Enabled() {
		s.Faults = cfg.String()
	} else {
		s.Faults = ""
	}
	s.Properties = jobs.SortProperties(s.Properties)
	for _, id := range s.Properties {
		if _, ok := props.ByID(id); !ok {
			return s, fmt.Errorf("prochecker: unknown property %q in job spec", id)
		}
	}
	s.Catalogue = CatalogueVersion()
	return s, nil
}

// RunJob executes one job spec end to end: analyse the implementation
// under the spec's fault adversary, check the selected properties (the
// full catalogue when none are selected), and package the deterministic
// verdicts. The spec is normalized first, so RunJob accepts the same
// loose inputs Submit does.
func RunJob(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return runJob(ctx, spec, 0)
}

// JobRunner adapts RunJob into the job service's Runner hook with a
// fixed per-job worker-pool bound (0 = GOMAXPROCS).
func JobRunner(workers int) jobs.Runner {
	return func(ctx context.Context, spec jobs.Spec) (*jobs.Result, error) {
		return runJob(ctx, spec, workers)
	}
}

func runJob(ctx context.Context, spec JobSpec, workers int) (*JobResult, error) {
	spec, err := NormalizeJobSpec(spec)
	if err != nil {
		return nil, err
	}
	impl, err := ParseImplementation(spec.Impl)
	if err != nil {
		return nil, err
	}
	cfg, err := channel.ParseFaultSpec(spec.Faults, spec.Seed)
	if err != nil {
		return nil, err
	}
	a, err := AnalyzeContext(ctx, impl, WithWorkers(workers), WithFaults(cfg))
	if err != nil {
		return nil, err
	}

	var results []PropertyResult
	if len(spec.Properties) == 0 {
		results, err = a.CheckAllContext(ctx)
		if err != nil {
			return nil, err
		}
	} else {
		for _, id := range spec.Properties {
			r, err := a.CheckPropertyContext(ctx, id)
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
	}

	res := &JobResult{SchemaVersion: jobs.ResultSchemaVersion, Key: spec.Key(), Spec: spec}
	if lr := a.LintReport(); lr != nil {
		sum := &jobs.LintSummary{Codes: lr.Codes()}
		sum.Errors, sum.Warnings, sum.Infos = lr.Counts()
		res.Lint = sum
	}
	for _, r := range results {
		res.Verdicts = append(res.Verdicts, JobVerdict{
			ID:          r.ID,
			Class:       r.Class,
			Verified:    r.Verified,
			AttackFound: r.AttackFound,
			Vacuous:     r.Vacuous,
			Detail:      r.Detail,
		})
	}
	return res, nil
}

// CampaignSpec is a batch matrix: every implementation crossed with
// every fault spec, all under one seed and one property selection —
// the paper's multi-implementation evaluation as a single submission.
type CampaignSpec struct {
	// Impls lists implementation names (case-insensitive).
	Impls []string `json:"impls"`
	// Faults lists fault-injection specs; an empty list means one
	// benign column, and an empty string inside the list is a benign
	// column alongside faulted ones.
	Faults []string `json:"faults,omitempty"`
	// Seed is the base PRNG seed shared by every cell.
	Seed int64 `json:"seed"`
	// Properties selects catalogue property IDs (empty = full
	// catalogue).
	Properties []string `json:"properties,omitempty"`
}

// Jobs expands the matrix into normalized job specs, implementations
// outermost, and rejects an empty or invalid matrix.
func (c CampaignSpec) Jobs() ([]JobSpec, error) {
	if len(c.Impls) == 0 {
		return nil, fmt.Errorf("prochecker: campaign lists no implementations")
	}
	faults := c.Faults
	if len(faults) == 0 {
		faults = []string{""}
	}
	var out []JobSpec
	for _, impl := range c.Impls {
		for _, f := range faults {
			spec, err := NormalizeJobSpec(JobSpec{
				Impl:       impl,
				Faults:     f,
				Seed:       c.Seed,
				Properties: append([]string(nil), c.Properties...),
			})
			if err != nil {
				return nil, err
			}
			out = append(out, spec)
		}
	}
	return out, nil
}

// JobLabel names one campaign cell for the differential report:
// the implementation, plus its fault spec when the link is hostile.
func JobLabel(spec JobSpec) string {
	if spec.Faults == "" {
		return spec.Impl
	}
	return spec.Impl + "+" + spec.Faults
}
