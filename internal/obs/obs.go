// Package obs is the pipeline's observability layer: a span API that
// records where a run spends its time (phase tree with durations,
// attributes and error status), a concurrency-safe metrics registry
// (counters, gauges, histograms — exposed in Prometheus text format), an
// HTTP serve mode exposing /metrics and net/http/pprof for live
// profiling, and a machine-readable run manifest combining all of it
// with the run's configuration and verdicts.
//
// The layer is strictly opt-in and zero-cost when disabled: every
// method is nil-safe, so instrumented code obtains its Observer (and
// its metric instruments) from the context once and calls through nil
// receivers when no observer was installed — no allocation, no
// locking, no branching beyond a nil check. The package depends on the
// standard library only.
package obs

import (
	"context"
	"fmt"
	"time"
)

// Level grades event verbosity: the CLI's -quiet/-v flags map onto it.
type Level int8

// Verbosity levels, in increasing detail.
const (
	// LevelQuiet suppresses everything but the final results.
	LevelQuiet Level = iota - 1
	// LevelNormal is the default: progress summaries only.
	LevelNormal
	// LevelVerbose streams span begin/end events as they happen.
	LevelVerbose
)

// Event is one entry of the observer's live event stream: a span
// beginning or ending, or a free-form note.
type Event struct {
	Time time.Time
	// Kind is "begin", "end" or "note".
	Kind string
	// Span is the originating span's slash-joined path (empty for
	// observer-level notes).
	Span string
	// Dur is the span duration on "end" events.
	Dur time.Duration
	// Err is the span's recorded error on "end" events, if any.
	Err string
	// Msg is the text of "note" events.
	Msg string
}

// Observer owns one run's telemetry: the span tree rooted at the run
// itself, the metrics registry, and the optional live event sink. The
// zero value is not useful — construct with New. A nil *Observer is a
// valid no-op recorder: every method short-circuits.
type Observer struct {
	reg   *Registry
	root  *Span
	start time.Time
	level Level
	sink  func(Event)
	bus   *Bus
}

// ObserverOption tunes New.
type ObserverOption func(*Observer)

// WithEventSink installs a live event callback. The sink is invoked
// synchronously from whatever goroutine begins or ends a span, so it
// must be safe for concurrent use (the CLI's sink serialises through a
// mutex before writing to stderr).
func WithEventSink(level Level, sink func(Event)) ObserverOption {
	return func(o *Observer) {
		o.level = level
		o.sink = sink
	}
}

// WithRegistry makes the observer record into an existing registry
// instead of a fresh one (e.g. the one a job service and its HTTP
// server share).
func WithRegistry(r *Registry) ObserverOption {
	return func(o *Observer) { o.reg = r }
}

// WithBus attaches a live event bus: every span begin/end and note is
// published to it regardless of the sink's verbosity level, carrying
// the scope installed on the originating context (see WithScope).
func WithBus(b *Bus) ObserverOption {
	return func(o *Observer) { o.bus = b }
}

// New builds an observer whose root span ("run") starts now.
func New(opts ...ObserverOption) *Observer {
	o := &Observer{start: time.Now()}
	for _, opt := range opts {
		opt(o)
	}
	if o.reg == nil {
		o.reg = NewRegistry()
	}
	o.root = &Span{obs: o, name: "run", start: o.start}
	return o
}

// Metrics returns the observer's registry; nil for a nil observer, and
// every Registry method is in turn nil-safe.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Root returns the run's root span (nil for a nil observer).
func (o *Observer) Root() *Span {
	if o == nil {
		return nil
	}
	return o.root
}

// Bus returns the attached event bus; nil for a nil observer or when
// none was attached, and every Bus method is in turn nil-safe.
func (o *Observer) Bus() *Bus {
	if o == nil {
		return nil
	}
	return o.bus
}

// Notef emits a free-form event at the given level.
func (o *Observer) Notef(level Level, format string, args ...any) {
	if o == nil {
		return
	}
	msg := ""
	if o.bus != nil || (o.sink != nil && level <= o.level) {
		msg = fmt.Sprintf(format, args...)
	}
	o.bus.Publish(BusEvent{Type: "note", Msg: msg})
	if o.sink == nil || level > o.level {
		return
	}
	o.sink(Event{Time: time.Now(), Kind: "note", Msg: msg})
}

// emit forwards a span event to the sink when verbose enough.
func (o *Observer) emit(ev Event) {
	if o == nil || o.sink == nil || o.level < LevelVerbose {
		return
	}
	o.sink(ev)
}

// ctxKey keys observer and span values in a context.
type ctxKey int

const (
	observerKey ctxKey = iota
	spanKey
	scopeKey
)

// WithScope returns a context whose spans (and the bus events they
// publish) are tagged with the given scope — the job service installs
// each job's ID here so streaming endpoints can demultiplex one
// process-wide bus into per-job event streams.
func WithScope(ctx context.Context, scope string) context.Context {
	return context.WithValue(ctx, scopeKey, scope)
}

// ScopeFromContext returns the scope installed by WithScope ("" when
// absent).
func ScopeFromContext(ctx context.Context) string {
	s, _ := ctx.Value(scopeKey).(string)
	return s
}

// NewContext returns a context carrying the observer (and its root span
// as the current span). A nil observer returns ctx unchanged, keeping
// the disabled path allocation-free.
func NewContext(ctx context.Context, o *Observer) context.Context {
	if o == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, observerKey, o)
	return context.WithValue(ctx, spanKey, o.root)
}

// FromContext extracts the observer installed by NewContext; nil when
// absent. All Observer methods are nil-safe, so the result can be used
// unconditionally.
func FromContext(ctx context.Context) *Observer {
	o, _ := ctx.Value(observerKey).(*Observer)
	return o
}

// SpanFromContext returns the span most recently started on this
// context (the root span right after NewContext); nil when no observer
// is installed.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Start begins a child span of the context's current span and returns a
// derived context carrying it. With no observer installed it returns
// ctx unchanged and a nil span whose methods all no-op — instrumented
// code calls Start/End unconditionally.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.startChild(name, ScopeFromContext(ctx), attrs...)
	return context.WithValue(ctx, spanKey, child), child
}
