// Package resilience provides the pipeline's failure taxonomy: typed
// sentinel errors for the ways an analysis run can end short of a clean
// verdict, a classifier mapping arbitrary errors onto that taxonomy, a
// multi-error collector for graceful degradation (return every completed
// result plus an aggregate of what failed), and the process exit codes
// the CLI derives from a run's worst failure.
//
// The taxonomy distinguishes seven non-fatal endings from a genuine
// internal fault:
//
//   - Cancelled: the caller's context was cancelled or its deadline
//     expired; partial results are valid as far as they go.
//   - FaultInjected: an adversarial channel fault (drop, corruption,
//     duplication, reordering) perturbed the run; failures are expected
//     inputs under the Dolev-Yao threat model, not crashes.
//   - BudgetExhausted: an exploration or iteration bound tripped; the
//     verdict is Unknown rather than wrong.
//   - CasePanic: a test case panicked and was isolated to its own
//     result instead of killing the process.
//   - ModelLint: the model-lint gate refused a model carrying static
//     diagnostics at or above the gate severity; nothing was checked.
//   - RetryExhausted: a retry policy spent every attempt on a failure
//     class that is normally transient; the job is poisoned and was
//     quarantined instead of blocking the queue forever.
//   - LeaseExpired: a distributed worker holding a job lease stopped
//     heartbeating (crash, partition); the work was not wrong, the
//     worker vanished, so the job is requeued for another worker.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// Sentinel errors of the failure taxonomy. Wrap them with %w so
// errors.Is classification survives annotation.
var (
	// ErrCancelled marks work cut short by context cancellation or a
	// deadline, distinct from the Unknown/truncation outcomes of the
	// model checker: the pipeline stopped, the bound did not trip.
	ErrCancelled = errors.New("run cancelled")
	// ErrFaultInjected marks a failure attributable to an adversarial
	// channel fault rather than the implementation under test.
	ErrFaultInjected = errors.New("fault injected")
	// ErrBudgetExhausted marks an exploration/iteration bound tripping.
	ErrBudgetExhausted = errors.New("analysis budget exhausted")
	// ErrCasePanic marks a test case panic that was recovered and
	// isolated to the case's own result.
	ErrCasePanic = errors.New("test case panicked")
	// ErrModelLint marks a run stopped by the model-lint gate: the
	// extracted/composed model carried static diagnostics at or above
	// the gate severity, so checking it would verify the wrong model.
	ErrModelLint = errors.New("model lint gate failed")
	// ErrRetryExhausted marks a job whose retry policy ran out of
	// attempts on a retryable failure class; the job is quarantined as
	// poisoned rather than retried forever.
	ErrRetryExhausted = errors.New("retry attempts exhausted")
	// ErrLeaseExpired marks a job whose distributed worker lease ran
	// out without a heartbeat or result: the worker crashed or was
	// partitioned away mid-attempt. The failure says nothing about the
	// job itself, so it is the canonical retryable class.
	ErrLeaseExpired = errors.New("worker lease expired")
)

// Kind buckets a failure for reporting and exit-code selection.
type Kind uint8

// The failure kinds, ordered by severity: Classify on an aggregate
// reports the most severe member, and Internal outranks the expected,
// recoverable endings.
const (
	KindNone            Kind = iota // no failure
	KindCancelled                   // context cancelled or deadline expired
	KindFaultInjected               // adversarial channel fault
	KindBudgetExhausted             // exploration/iteration bound hit
	KindCasePanic                   // recovered test-case panic
	KindModelLint                   // model-lint gate tripped
	KindRetryExhausted              // retry policy spent on a transient class
	KindLeaseExpired                // distributed worker lease ran out mid-attempt
	KindInternal                    // genuine pipeline fault
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindCancelled:
		return "cancelled"
	case KindFaultInjected:
		return "fault-injected"
	case KindBudgetExhausted:
		return "budget-exhausted"
	case KindCasePanic:
		return "case-panic"
	case KindModelLint:
		return "model-lint"
	case KindRetryExhausted:
		return "retry-exhausted"
	case KindLeaseExpired:
		return "lease-expired"
	case KindInternal:
		return "internal"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Classify maps an error onto the taxonomy. Aggregates (ErrorList,
// errors.Join) classify as their most severe member; nil is KindNone.
// Bare context errors classify as cancelled even when the sentinel was
// never attached.
func Classify(err error) Kind {
	if err == nil {
		return KindNone
	}
	worst := KindNone
	for _, e := range flatten(err) {
		worst = max(worst, classifyOne(e))
	}
	return worst
}

func classifyOne(err error) Kind {
	switch {
	case errors.Is(err, ErrCancelled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return KindCancelled
	case errors.Is(err, ErrFaultInjected):
		return KindFaultInjected
	case errors.Is(err, ErrBudgetExhausted):
		return KindBudgetExhausted
	case errors.Is(err, ErrCasePanic):
		return KindCasePanic
	case errors.Is(err, ErrModelLint):
		return KindModelLint
	case errors.Is(err, ErrRetryExhausted):
		return KindRetryExhausted
	case errors.Is(err, ErrLeaseExpired):
		return KindLeaseExpired
	default:
		return KindInternal
	}
}

// Retryable reports whether a failure of this kind is worth another
// attempt: adversarial channel faults and isolated case panics are
// transient under a reseeded or differently-scheduled run, and an
// expired worker lease says the worker died, not that the job is bad —
// while cancellation, budget exhaustion, lint gates and genuine
// internal faults are deterministic — retrying them burns attempts on
// the same answer. Retry policies consult this instead of hard-coding
// classes.
func (k Kind) Retryable() bool {
	return k == KindFaultInjected || k == KindCasePanic || k == KindLeaseExpired
}

// flatten expands multi-error trees into leaves, descending through
// single-unwrap wrappers to find aggregates below them (e.g. the CLI's
// fmt.Errorf("partial catalogue: %w", ErrorList{...})); an error with
// no aggregate anywhere in its chain is its own single leaf.
func flatten(err error) []error {
	for e := err; e != nil; {
		if multi, ok := e.(interface{ Unwrap() []error }); ok {
			var out []error
			for _, m := range multi.Unwrap() {
				out = append(out, flatten(m)...)
			}
			return out
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			break
		}
		e = u.Unwrap()
	}
	return []error{err}
}

// Exit codes the CLI reports, keyed by the run's classified failure.
const (
	ExitOK              = 0
	ExitInternal        = 1
	ExitCancelled       = 2
	ExitFaultInjected   = 3
	ExitBudgetExhausted = 4
	ExitCasePanic       = 5
	ExitModelLint       = 6
	ExitRetryExhausted  = 7
	ExitLeaseExpired    = 8
)

// ExitCode selects the process exit code for a run that ended with err.
func ExitCode(err error) int { return Classify(err).ExitCode() }

// ExitCode maps the kind onto the CLI exit-code vocabulary.
func (k Kind) ExitCode() int {
	switch k {
	case KindNone:
		return ExitOK
	case KindCancelled:
		return ExitCancelled
	case KindFaultInjected:
		return ExitFaultInjected
	case KindBudgetExhausted:
		return ExitBudgetExhausted
	case KindCasePanic:
		return ExitCasePanic
	case KindModelLint:
		return ExitModelLint
	case KindRetryExhausted:
		return ExitRetryExhausted
	case KindLeaseExpired:
		return ExitLeaseExpired
	case KindInternal:
		return ExitInternal
	default:
		// Unknown future kinds decay to the internal exit code; every
		// declared kind is named above (enforced by exhaustive-switch).
		return ExitInternal
	}
}

// ParseKind inverts Kind.String — the bridge for failure classes that
// crossed a serialization boundary (job records, HTTP status payloads).
func ParseKind(s string) (Kind, bool) {
	for k := KindNone; k <= KindInternal; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return KindInternal, false
}

// errInternal anchors reconstructed internal failures so Sentinel always
// returns a classifiable error for non-clean kinds.
var errInternal = errors.New("internal failure")

// Sentinel returns the taxonomy error a reconstructed failure of this
// kind should wrap (nil for KindNone), so errors.Is classification and
// exit codes survive a round trip through a serialized failure class.
func (k Kind) Sentinel() error {
	switch k {
	case KindNone:
		return nil
	case KindCancelled:
		return ErrCancelled
	case KindFaultInjected:
		return ErrFaultInjected
	case KindBudgetExhausted:
		return ErrBudgetExhausted
	case KindCasePanic:
		return ErrCasePanic
	case KindModelLint:
		return ErrModelLint
	case KindRetryExhausted:
		return ErrRetryExhausted
	case KindLeaseExpired:
		return ErrLeaseExpired
	case KindInternal:
		return errInternal
	default:
		// Unknown future kinds decay to the internal sentinel; every
		// declared kind is named above (enforced by exhaustive-switch).
		return errInternal
	}
}

// ErrorList aggregates the failures of a degraded run while the
// completed results travel alongside. It unwraps to its members, so
// errors.Is/As see through it.
type ErrorList []error

// Error implements error.
func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d errors:", len(l))
	for _, e := range l {
		b.WriteString("\n  - ")
		b.WriteString(e.Error())
	}
	return b.String()
}

// Unwrap exposes the members to errors.Is and errors.As.
func (l ErrorList) Unwrap() []error { return l }

// Collector accumulates failures during a run that keeps going.
type Collector struct {
	errs ErrorList
}

// Add records a failure; nil is ignored.
func (c *Collector) Add(err error) {
	if err != nil {
		c.errs = append(c.errs, err)
	}
}

// Len reports how many failures were recorded.
func (c *Collector) Len() int { return len(c.errs) }

// Err returns nil when nothing failed, the single failure unwrapped, or
// the aggregate ErrorList.
func (c *Collector) Err() error {
	switch len(c.errs) {
	case 0:
		return nil
	case 1:
		return c.errs[0]
	default:
		return c.errs
	}
}

// Cancelled reports whether err (or any member of an aggregate)
// classifies as a cancellation.
func Cancelled(err error) bool { return Classify(err) == KindCancelled }

// FanOut calls fn(i) for every i in [0, n) over a bounded worker pool
// (workers <= 0 means runtime.GOMAXPROCS(0); with one worker the calls
// run in order on the caller's goroutine). Indices are dispatched in
// order and dispatching stops once ctx is done; calls already running
// finish. ran[i] reports whether fn(i) was called, so a degraded run
// can collect what completed and count what never started.
func FanOut(ctx context.Context, n, workers int, fn func(i int)) (ran []bool) {
	ran = make([]bool, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
			ran[i] = true
		}
		return ran
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
				ran[i] = true
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return ran
}
