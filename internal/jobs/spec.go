// Package jobs is the batch-analysis subsystem: a bounded FIFO job
// queue with backpressure, executed by in-process executors running
// specs through an injected runner, and a content-addressed on-disk result store with LRU eviction that
// dedupes repeated work.
//
// The package is deliberately protocol-agnostic: a Spec is data, the
// Runner that turns a Spec into a Result is injected (the root
// prochecker package provides one built on AnalyzeContext), and an
// optional Normalize hook canonicalises specs before they are hashed,
// so equivalent submissions ("srslte" vs "srsLTE", "drop=0.05,corrupt=0"
// vs "drop=0.05") collapse onto one cache key.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Spec is one analysis job's content: which implementation to analyse,
// under which fault-injection adversary, and which properties to check.
// Its canonical JSON encoding is the job's identity — two specs with
// equal fields share one Key and therefore one stored Result.
type Spec struct {
	// Impl names the implementation profile ("conformant", "srsLTE",
	// "OAI"; normalization makes the match case-insensitive).
	Impl string `json:"impl"`
	// Faults is the fault-injection spec in channel.ParseFaultSpec
	// syntax; empty means a benign link.
	Faults string `json:"faults,omitempty"`
	// Seed drives the fault adversary's PRNGs; it participates in the
	// key even for benign runs so explicitly re-seeded submissions stay
	// distinct.
	Seed int64 `json:"seed"`
	// Properties selects catalogue property IDs; empty means the full
	// catalogue.
	Properties []string `json:"properties,omitempty"`
	// Catalogue is the property-catalogue fingerprint the result was
	// (or will be) computed against: a catalogue change invalidates
	// every cached verdict by changing every key.
	Catalogue string `json:"catalogue,omitempty"`
}

// Key is the spec's content address: the SHA-256 of its canonical JSON
// encoding, in hex. Call it on normalized specs — the service hashes
// after its Normalize hook ran.
func (s Spec) Key() string {
	// Canonical form: fixed field order from the struct, nil for an
	// empty property selection.
	if len(s.Properties) == 0 {
		s.Properties = nil
	}
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec of plain strings and ints cannot fail to marshal.
		panic(fmt.Sprintf("jobs: marshalling spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Verdict is one property's outcome inside a stored Result. It carries
// only deterministic fields — no durations — so a cached result is
// byte-identical to a fresh computation of the same spec.
type Verdict struct {
	ID          string `json:"id"`
	Class       string `json:"class"`
	Verified    bool   `json:"verified"`
	AttackFound bool   `json:"attack_found"`
	// Vacuous marks a property the static vacuity pre-pass discharged
	// without exploration (verified, trigger statically unreachable).
	Vacuous bool   `json:"vacuous,omitempty"`
	Detail  string `json:"detail"`
}

// ResultSchemaVersion stamps stored results so a future layout change
// can skip stale files instead of misreading them. Version 2 added the
// model-lint summary.
const ResultSchemaVersion = 2

// LintSummary condenses the model-lint pre-check of the analysis behind
// a job: severity counts plus the distinct diagnostic codes, all
// deterministic for a given spec.
type LintSummary struct {
	Errors   int      `json:"errors"`
	Warnings int      `json:"warnings"`
	Infos    int      `json:"infos"`
	Codes    []string `json:"codes,omitempty"`
}

// String renders the compact per-job form ("0E/3W/1I").
func (l *LintSummary) String() string {
	if l == nil {
		return "-"
	}
	return fmt.Sprintf("%dE/%dW/%dI", l.Errors, l.Warnings, l.Infos)
}

// Result is a completed job's verdict set, keyed by the spec that
// produced it. Everything in it is deterministic for a given spec.
type Result struct {
	SchemaVersion int          `json:"schema_version"`
	Key           string       `json:"key"`
	Spec          Spec         `json:"spec"`
	Lint          *LintSummary `json:"lint,omitempty"`
	Verdicts      []Verdict    `json:"verdicts"`
}

// Attacks counts the verdicts that reported a realizable attack.
func (r *Result) Attacks() int {
	n := 0
	for _, v := range r.Verdicts {
		if v.AttackFound {
			n++
		}
	}
	return n
}

// MarshalCanonical renders the result in the exact byte form the store
// persists: indented JSON with a trailing newline, fields in struct
// order. Differential tests compare these bytes between a fresh
// computation and a cache hit.
func (r *Result) MarshalCanonical() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobs: marshalling result: %w", err)
	}
	return append(b, '\n'), nil
}
