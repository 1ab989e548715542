// The exploration storage layer: interned states live in an append-only
// compact binary arena (one canonical encoding per state, ids are dense
// arena positions), and the visited set maps states to ids. When the
// product of the variable domains is at most denseRankLimit, the visited
// set is a rankTable: one int32 per possible assignment, indexed by the
// state's mixed-radix rank. Above it, an open-addressing hash index
// stores one 4-byte slot per state (at under 3/4 load) and confirms
// identity against the arena, whose sealed segments then carry a bloom
// filter (one byte per state) and a hash fence. Either way a state costs
// far less than the map-based design both replaced (string headers,
// bucket overhead, per-state slice allocations, a second copy of every
// state as its own map key) — and the arena is segmented, so cold
// segments can spill to disk under a memory budget while membership
// stays answerable from RAM.
package mc

import (
	"fmt"
	"os"
	"runtime"

	"prochecker/internal/obs"
)

// maxArenaStates bounds interned states so ids always fit the id+1
// packing of index slots. Far above any Options.MaxStates in use.
const maxArenaStates = 1<<30 - 2

// arenaSegmentTargetBytes sizes segments: small enough that spilling is
// incremental, large enough that a spilled-segment scan is one read.
const arenaSegmentTargetBytes = 256 << 10

// arenaSegment is one contiguous run of packed states. Sealed segments
// carry a bloom filter and a hash fence, both always resident, so a
// membership confirm against a spilled segment can often be refuted
// without touching disk.
type arenaSegment struct {
	data    []byte // nil once spilled
	off     int64  // offset in the spill file when spilled
	size    int64  // bytes of state data
	bloom   bloomFilter
	minHash uint64
	maxHash uint64
	spilled bool
}

// stateArena stores packed states append-only. It is written only by
// the serial phases of the explorer; the parallel phases read it
// concurrently (resident reads are lock-free slices, spilled reads go
// through File.ReadAt, which is safe for concurrent use).
type stateArena struct {
	stride  int // bytes per state (number of system variables)
	perSeg  int // states per segment, power of two
	segMask int
	segBits uint
	n       int

	segs []*arenaSegment
	// fenced arenas give sealed segments the bloom filter and hash fence
	// that confirm relies on. Only the hash visited set confirms; the
	// dense rank table never does, so its arena skips both.
	fenced bool

	// spillf is the anonymous spill file (created lazily, unlinked
	// immediately, closed by Release or the GC finalizer backstop).
	spillf     *os.File
	spillNext  int64
	spillBytes int64

	residentBytes int64 // resident state-data bytes
}

// newStateArena sizes segments for the given stride; segBytes overrides
// the default segment payload size (tests and tight budgets use small
// segments so spilling stays incremental).
func newStateArena(stride, segBytes int, fenced bool) *stateArena {
	if segBytes <= 0 {
		segBytes = arenaSegmentTargetBytes
	}
	s := max(stride, 1)
	per := 1
	for per*s < segBytes && per < 1<<18 {
		per <<= 1
	}
	per = max(per, 16)
	bits := uint(0)
	for 1<<bits != per {
		bits++
	}
	return &stateArena{stride: stride, perSeg: per, segMask: per - 1, segBits: bits, fenced: fenced}
}

// len reports the number of interned states.
func (a *stateArena) len() int { return a.n }

// append copies one packed state in (hash h, ignored unless fenced) and
// returns its id. The previous segment is sealed (bloom finalised) when
// a new one starts.
func (a *stateArena) append(s []byte, h uint64) (int32, error) {
	if a.n >= maxArenaStates {
		return 0, fmt.Errorf("mc: state arena full at %d states", a.n)
	}
	si := a.n >> a.segBits
	if si == len(a.segs) {
		seg := &arenaSegment{data: make([]byte, 0, a.perSeg*a.stride)}
		if a.fenced {
			seg.bloom = newBloomFilter(a.perSeg)
		}
		a.segs = append(a.segs, seg)
		a.residentBytes += int64(cap(seg.data))
	}
	seg := a.segs[si]
	seg.data = append(seg.data, s...)
	seg.size += int64(a.stride)
	if a.fenced {
		seg.bloom.add(h)
		if seg.size == int64(a.stride) || h < seg.minHash {
			seg.minHash = h
		}
		if h > seg.maxHash {
			seg.maxHash = h
		}
	}
	id := int32(a.n)
	a.n++
	return id, nil
}

// at returns the packed bytes of state id. Resident segments hand out a
// zero-copy view (callers must not mutate); spilled segments are read
// into a fresh buffer.
func (a *stateArena) at(id int32) ([]byte, error) {
	seg := a.segs[int(id)>>a.segBits]
	lo := (int(id) & a.segMask) * a.stride
	if !seg.spilled {
		return seg.data[lo : lo+a.stride : lo+a.stride], nil
	}
	buf := make([]byte, a.stride)
	if _, err := a.spillf.ReadAt(buf, seg.off+int64(lo)); err != nil {
		return nil, fmt.Errorf("mc: reading spilled state %d: %w", id, err)
	}
	return buf, nil
}

// confirm reports whether state id equals want (whose hash is h).
// Resident segments compare in place; spilled segments are pre-checked
// against the segment's hash fence and bloom filter so a refutable
// probe never touches disk, and only a surviving probe pays a ReadAt.
func (a *stateArena) confirm(id int32, want []byte, h uint64, spillReads *obs.Counter) (bool, error) {
	seg := a.segs[int(id)>>a.segBits]
	lo := (int(id) & a.segMask) * a.stride
	if !seg.spilled {
		return bytesEqual(seg.data[lo:lo+a.stride], want), nil
	}
	if h < seg.minHash || h > seg.maxHash || !seg.bloom.mayContain(h) {
		return false, nil
	}
	buf := make([]byte, a.stride)
	if _, err := a.spillf.ReadAt(buf, seg.off+int64(lo)); err != nil {
		return false, fmt.Errorf("mc: confirming spilled state %d: %w", id, err)
	}
	spillReads.Inc()
	return bytesEqual(buf, want), nil
}

// forEach streams states [from, n) in id order, loading each spilled
// segment with a single read. The callback's state view is only valid
// for that call. Iteration stops early when f returns false.
func (a *stateArena) forEach(from int32, f func(id int32, s []byte) bool) error {
	var scratch []byte
	for id := int(from); id < a.n; {
		si := id >> a.segBits
		seg := a.segs[si]
		data := seg.data
		if seg.spilled {
			if cap(scratch) < int(seg.size) {
				scratch = make([]byte, seg.size)
			}
			data = scratch[:seg.size]
			if _, err := a.spillf.ReadAt(data, seg.off); err != nil {
				return fmt.Errorf("mc: loading spilled segment %d: %w", si, err)
			}
		}
		end := min((si+1)<<a.segBits, a.n)
		for ; id < end; id++ {
			lo := (id & a.segMask) * a.stride
			if !f(int32(id), data[lo:lo+a.stride]) {
				return nil
			}
		}
	}
	return nil
}

// enforceBudget spills sealed segments, oldest first, until resident
// state bytes fit the budget. The open (newest) segment never spills —
// the frontier lives there. Returns the bytes moved to disk.
func (a *stateArena) enforceBudget(budget int64, dir string) (int64, error) {
	if budget <= 0 {
		return 0, nil
	}
	var moved int64
	for si := 0; si < len(a.segs)-1 && a.residentBytes > budget; si++ {
		seg := a.segs[si]
		if seg.spilled {
			continue
		}
		if a.spillf == nil {
			f, err := openSpillFile(dir)
			if err != nil {
				return moved, err
			}
			a.spillf = f
			// Backstop for graphs dropped from the engine cache without an
			// explicit Release: close the descriptor when the arena is
			// collected (the file itself is already unlinked).
			runtime.SetFinalizer(a, func(a *stateArena) { a.spillf.Close() })
		}
		if _, err := a.spillf.WriteAt(seg.data[:seg.size], a.spillNext); err != nil {
			return moved, fmt.Errorf("mc: spilling segment %d: %w", si, err)
		}
		seg.off = a.spillNext
		a.spillNext += seg.size
		a.residentBytes -= int64(cap(seg.data))
		moved += seg.size
		a.spillBytes += seg.size
		seg.data = nil
		seg.spilled = true
	}
	return moved, nil
}

// openSpillFile creates the anonymous spill file in dir (or the OS temp
// directory) and unlinks it immediately so the disk space is reclaimed
// when the descriptor closes, however the process exits.
func openSpillFile(dir string) (*os.File, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mc: creating spill dir: %w", err)
	}
	f, err := os.CreateTemp(dir, "mc-arena-*.spill")
	if err != nil {
		return nil, fmt.Errorf("mc: creating spill file: %w", err)
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("mc: unlinking spill file: %w", err)
	}
	return f, nil
}

// release closes the spill file (idempotent).
func (a *stateArena) release() {
	if a.spillf != nil {
		runtime.SetFinalizer(a, nil)
		a.spillf.Close()
		a.spillf = nil
	}
}

// memBytes reports the arena's resident footprint: state data plus the
// always-resident per-segment bloom filters.
func (a *stateArena) memBytes() int64 {
	b := a.residentBytes
	for _, seg := range a.segs {
		b += int64(len(seg.bloom))
	}
	return b
}

// bytesEqual is bytes.Equal without the import (stride-sized inputs).
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bloomFilter is a fixed-size split bloom over 64-bit state hashes:
// 8 bits and 4 probes per expected entry (~2% false positives), derived
// from the two hash halves so no extra hashing is needed.
type bloomFilter []byte

// newBloomFilter sizes a filter for n expected entries.
func newBloomFilter(n int) bloomFilter {
	return make(bloomFilter, max(n, 8))
}

func (b bloomFilter) add(h uint64) {
	m := uint64(len(b)) * 8
	h1, h2 := h, h>>33|h<<31
	for i := uint64(0); i < 4; i++ {
		bit := (h1 + i*h2) % m
		b[bit>>3] |= 1 << (bit & 7)
	}
}

func (b bloomFilter) mayContain(h uint64) bool {
	m := uint64(len(b)) * 8
	h1, h2 := h, h>>33|h<<31
	for i := uint64(0); i < 4; i++ {
		bit := (h1 + i*h2) % m
		if b[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// stateIndex is an open-addressing hash index over interned states:
// packed 4-byte slot values only (0 empty, id+1 occupied). No hashes are
// stored — identity is confirmed against the arena via the probe
// callback, and growth re-derives slot positions by re-hashing the
// states themselves in one sequential arena pass
// (levelExplorer.ensureIndex). With small state strides the index is the
// residency floor under a memory budget, so 4 bytes per slot is what
// keeps the arena layout several times smaller than the map-based
// design it replaced.
type stateIndex struct {
	slots []int32
	used  int
}

func newStateIndex() *stateIndex {
	return &stateIndex{slots: make([]int32, 64)}
}

// reserve sizes the table for n total entries at under 3/4 load. Only
// valid while the table is empty — growth with live entries goes
// through levelExplorer.ensureIndex, which re-hashes from the arena.
func (x *stateIndex) reserve(n int) {
	size := len(x.slots)
	for n*4 >= size*3 {
		size <<= 1
	}
	if size != len(x.slots) {
		x.slots = make([]int32, size)
	}
}

// probe walks the chain for h, calling eq on the id in every occupied
// slot, and returns the matching id, or -1 with the insertion position.
func (x *stateIndex) probe(h uint64, eq func(id int32) (bool, error)) (int32, int, error) {
	mask := len(x.slots) - 1
	pos := int(h) & mask
	for {
		v := x.slots[pos]
		if v == 0 {
			return -1, pos, nil
		}
		ok, err := eq(v - 1)
		if err != nil {
			return -1, pos, err
		}
		if ok {
			return v - 1, pos, nil
		}
		pos = (pos + 1) & mask
	}
}

// set fills a slot previously returned by probe with id. Callers must
// have reserved capacity (reserve or levelExplorer.ensureIndex) first.
func (x *stateIndex) set(pos int, id int32) {
	x.slots[pos] = id + 1
	x.used++
}

// add inserts id (hash h) without an identity check, for rebuilding the
// index from arena states, which are distinct by construction.
func (x *stateIndex) add(h uint64, id int32) {
	_, pos, _ := x.probe(h, func(int32) (bool, error) { return false, nil })
	x.set(pos, id)
}

// memBytes reports the table's resident footprint.
func (x *stateIndex) memBytes() int64 { return int64(len(x.slots)) * 4 }

// denseRankLimit bounds the dense visited set: a system whose variable
// domains multiply to at most this many assignments is explored with a
// rankTable (16 MiB of ids at the bound) instead of the hash index. The
// largest graph of the shipped profiles has 2,215,360 assignments.
const denseRankLimit = 1 << 22

// rankTable is the dense visited set: ids[rank(s)] is the id of state s,
// -1 while unseen, where rank is the state's mixed-radix number over the
// variable domains. A lookup is one multiply-add per variable and one
// load — no hashing, probing or byte confirm.
type rankTable struct {
	radix []int
	ids   []int32
}

// newRankTable sizes the table for domains, or returns nil when their
// product exceeds denseRankLimit.
func newRankTable(domains []int) *rankTable {
	radix := make([]int, len(domains))
	n := 1
	for v := len(domains) - 1; v >= 0; v-- {
		radix[v] = n
		if n *= domains[v]; n > denseRankLimit {
			return nil
		}
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = -1
	}
	return &rankTable{radix: radix, ids: ids}
}

// rank is s's mixed-radix number, an index into ids.
func (t *rankTable) rank(s []byte) int {
	r := 0
	for v, x := range s {
		r += int(x) * t.radix[v]
	}
	return r
}

// memBytes reports the table's resident footprint.
func (t *rankTable) memBytes() int64 { return int64(len(t.ids)) * 4 }
