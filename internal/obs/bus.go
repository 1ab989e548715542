package obs

import (
	"context"
	"errors"
	"sync"
	"time"
)

// BusEvent is one entry of the live event stream: a span boundary, a
// job or campaign lifecycle transition, a per-level exploration
// progress report, a metric delta, or a synthetic "dropped" marker a
// lagging subscriber receives in place of events the ring has already
// recycled. Which fields are meaningful depends on Type.
type BusEvent struct {
	// Seq is the bus-assigned sequence number, monotonically increasing
	// from 1. SSE endpoints expose it as the event id so reconnecting
	// clients resume without loss while the event is still retained.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Type is one of "span_start", "span_end", "note", "metric", "job",
	// "campaign", "progress" or "dropped".
	Type string `json:"type"`
	// Scope names the job or campaign the event belongs to ("" for
	// process-wide events); streaming endpoints filter on it.
	Scope string `json:"scope,omitempty"`
	// Name identifies the subject: span path, metric name, or lifecycle
	// state.
	Name  string  `json:"name,omitempty"`
	Value int64   `json:"value,omitempty"`
	DurMS float64 `json:"dur_ms,omitempty"`
	Err   string  `json:"err,omitempty"`
	Msg   string  `json:"msg,omitempty"`
	// Attrs carries small event-specific annotations (attempt numbers,
	// frontier widths, member job IDs).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// DefaultBusCapacity is the ring size used when NewBus is given a
// non-positive capacity: enough to retain a whole mid-sized campaign's
// lifecycle plus per-level progress while a reconnecting client
// catches up.
const DefaultBusCapacity = 4096

// ErrBusClosed is returned by Subscription.Next once the subscription
// has been closed.
var ErrBusClosed = errors.New("obs: subscription closed")

// Bus is a bounded, sequence-numbered fan-out ring of BusEvents. One
// publisher side (observers, the job service, the exploration engine)
// appends; any number of subscribers read at their own pace through
// cursors into the shared ring. Publish never blocks: a subscriber
// that falls more than the ring capacity behind loses the overwritten
// events, counted in obs.events_dropped and surfaced to that
// subscriber as a synthetic "dropped" marker event. All methods are
// nil-safe, so instrumented code publishes unconditionally.
type Bus struct {
	reg *Registry

	mu   sync.Mutex
	ring []BusEvent // index seq-1 mod cap
	seq  uint64     // last assigned sequence (0 = none yet)
	subs map[*Subscription]struct{}
}

// NewBus builds a bus retaining up to capacity events
// (DefaultBusCapacity when capacity <= 0). The registry receives the
// bus's own telemetry (obs.events_published, obs.events_dropped) and
// may be nil.
func NewBus(capacity int, reg *Registry) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	// Pre-register the bus counters so an idle bus already exposes its
	// series (at zero) on a metrics scrape.
	if reg != nil {
		reg.Counter("obs.events_published")
		reg.Counter("obs.events_dropped")
	}
	return &Bus{
		reg:  reg,
		ring: make([]BusEvent, capacity),
		subs: make(map[*Subscription]struct{}),
	}
}

// Publish assigns the event its sequence number (and timestamp, when
// unset), appends it to the ring and wakes subscribers. It never
// blocks on slow consumers and returns the assigned sequence (0 for a
// nil bus).
func (b *Bus) Publish(ev BusEvent) uint64 {
	if b == nil {
		return 0
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	b.ring[(ev.Seq-1)%uint64(len(b.ring))] = ev
	for sub := range b.subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
	b.mu.Unlock()
	b.reg.Counter("obs.events_published").Inc()
	return ev.Seq
}

// Seq reports the last assigned sequence number (0 before any event).
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// oldestLocked is the lowest sequence still retained in the ring
// (seq+1 when the ring is empty, so cursors at it block until the
// next publish).
func (b *Bus) oldestLocked() uint64 {
	if n := uint64(len(b.ring)); b.seq > n {
		return b.seq - n + 1
	}
	return 1
}

// Subscribe attaches a new subscriber whose cursor starts at fromSeq:
// 0 (or any sequence at or below the oldest retained) replays
// everything still in the ring; Seq()+1 skips history and observes
// only future events. Nil bus returns nil; a nil *Subscription's
// methods are no-ops that report closure.
func (b *Bus) Subscribe(fromSeq uint64) *Subscription {
	if b == nil {
		return nil
	}
	sub := &Subscription{
		bus:    b,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	b.mu.Lock()
	sub.cursor = fromSeq
	if sub.cursor == 0 {
		sub.cursor = 1
	}
	b.subs[sub] = struct{}{}
	b.mu.Unlock()
	return sub
}

// Subscription is one reader's cursor into the bus ring. Next/TryNext
// deliver events in sequence order; a cursor the ring has overtaken is
// snapped forward to the oldest retained event after delivering one
// synthetic "dropped" marker accounting for the gap. Not safe for
// concurrent Next calls from multiple goroutines.
type Subscription struct {
	bus    *Bus
	cursor uint64 // next sequence to deliver
	notify chan struct{}
	done   chan struct{}
	once   sync.Once
}

// nextLocked fetches the next deliverable event, if any, advancing the
// cursor. Called with bus.mu held.
func (s *Subscription) nextLocked() (BusEvent, bool) {
	b := s.bus
	if oldest := b.oldestLocked(); s.cursor < oldest {
		gap := oldest - s.cursor
		s.cursor = oldest
		b.reg.Counter("obs.events_dropped").Add(int64(gap))
		return BusEvent{
			Seq:   oldest - 1,
			Time:  time.Now(),
			Type:  "dropped",
			Value: int64(gap),
			Msg:   "events dropped: subscriber fell behind ring retention",
		}, true
	}
	if s.cursor <= b.seq {
		ev := b.ring[(s.cursor-1)%uint64(len(b.ring))]
		s.cursor++
		return ev, true
	}
	return BusEvent{}, false
}

// TryNext returns the next event without blocking; ok is false when
// the subscriber is fully caught up (or the subscription is nil or
// closed).
func (s *Subscription) TryNext() (BusEvent, bool) {
	if s == nil {
		return BusEvent{}, false
	}
	select {
	case <-s.done:
		return BusEvent{}, false
	default:
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.nextLocked()
}

// Next blocks until an event is available, the context is cancelled,
// or the subscription is closed.
func (s *Subscription) Next(ctx context.Context) (BusEvent, error) {
	if s == nil {
		return BusEvent{}, ErrBusClosed
	}
	for {
		s.bus.mu.Lock()
		ev, ok := s.nextLocked()
		s.bus.mu.Unlock()
		if ok {
			return ev, nil
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return BusEvent{}, ctx.Err()
		case <-s.done:
			return BusEvent{}, ErrBusClosed
		}
	}
}

// Cursor reports the next sequence the subscription will deliver —
// after a Next, the last delivered sequence + 1.
func (s *Subscription) Cursor() uint64 {
	if s == nil {
		return 0
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.cursor
}

// Close detaches the subscription; a blocked Next returns
// ErrBusClosed. Closing twice is harmless.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		s.bus.mu.Lock()
		delete(s.bus.subs, s)
		s.bus.mu.Unlock()
		close(s.done)
	})
}
