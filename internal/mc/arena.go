// The exploration storage layer: interned states live in an append-only
// compact binary arena (one canonical encoding per state, ids are dense
// arena positions), and the visited set maps states to ids. When the
// product of the variable domains is at most denseRankLimit, the visited
// set is a rankTable: one int32 per possible assignment, indexed by the
// state's mixed-radix rank. Above it, an open-addressing hash index
// stores one 4-byte slot per state (at under 3/4 load) and confirms
// identity against the arena. Either way a state costs far less than the
// map-based design both replaced (string headers, bucket overhead,
// per-state slice allocations, a second copy of every state as its own
// map key). The arena is segmented so it grows without copying the
// states it already holds, and each segment is allocated at its full
// length and written once, so a copy of the arena's header taken at a
// level boundary stays a valid view while later states are appended.
package mc

import "fmt"

// maxArenaStates bounds interned states so ids always fit the id+1
// packing of index slots. Far above any Options.MaxStates in use.
const maxArenaStates = 1<<30 - 2

// arenaSegmentTargetBytes sizes segments: large enough that segment
// allocations are rare, small enough that the open segment's unused
// tail stays a small share of a graph.
const arenaSegmentTargetBytes = 256 << 10

// stateArena stores packed states append-only in fixed-size segments of
// perSeg states each. It is written only by the serial phases of the
// explorer; the parallel phases, and readers of a published copy of
// the header, read it concurrently, lock-free.
type stateArena struct {
	stride  int // bytes per state (number of system variables)
	perSeg  int // states per segment, power of two
	segMask int
	segBits uint
	n       int

	segs [][]byte
}

// newStateArena sizes segments of about arenaSegmentTargetBytes for the
// given stride.
func newStateArena(stride int) *stateArena {
	s := max(stride, 1)
	per := 1
	for per*s < arenaSegmentTargetBytes && per < 1<<18 {
		per <<= 1
	}
	per = max(per, 16)
	bits := uint(0)
	for 1<<bits != per {
		bits++
	}
	return &stateArena{stride: stride, perSeg: per, segMask: per - 1, segBits: bits}
}

// len reports the number of interned states.
func (a *stateArena) len() int { return a.n }

// append copies one packed state in and returns its id.
func (a *stateArena) append(s []byte) (int32, error) {
	if a.n >= maxArenaStates {
		return 0, fmt.Errorf("mc: state arena full at %d states", a.n)
	}
	si := a.n >> a.segBits
	if si == len(a.segs) {
		a.segs = append(a.segs, make([]byte, a.perSeg*a.stride))
	}
	copy(a.segs[si][(a.n&a.segMask)*a.stride:], s)
	id := int32(a.n)
	a.n++
	return id, nil
}

// at returns a zero-copy view of state id's packed bytes (callers must
// not mutate it).
func (a *stateArena) at(id int32) []byte {
	lo := (int(id) & a.segMask) * a.stride
	return a.segs[int(id)>>a.segBits][lo : lo+a.stride : lo+a.stride]
}

// forEach streams every state from id from on, in id order. The
// callback's state view must not be mutated. Iteration stops early when
// f returns false.
func (a *stateArena) forEach(from int, f func(id int32, s []byte) bool) {
	for id := from; id < a.n; {
		data := a.segs[id>>a.segBits]
		end := min((id>>a.segBits+1)<<a.segBits, a.n)
		for ; id < end; id++ {
			lo := (id & a.segMask) * a.stride
			if !f(int32(id), data[lo:lo+a.stride]) {
				return
			}
		}
	}
}

// memBytes reports the arena's resident footprint: the capacity of
// every segment allocated so far.
func (a *stateArena) memBytes() int64 {
	return int64(len(a.segs)) * int64(a.perSeg*a.stride)
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

// stateIndex is an open-addressing hash index over interned states:
// packed 4-byte slot values only (0 empty, id+1 occupied). No hashes are
// stored — identity is confirmed against the arena via the probe
// callback, and growth re-derives slot positions by re-hashing the
// states themselves in one sequential arena pass
// (levelExplorer.ensureIndex). With small state strides the index is
// most of a hashed graph's visited-set footprint, so 4 bytes per slot is
// what keeps the arena layout several times smaller than the map-based
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
func (x *stateIndex) probe(h uint64, eq func(id int32) bool) (int32, int) {
	mask := len(x.slots) - 1
	pos := int(h) & mask
	for {
		v := x.slots[pos]
		if v == 0 {
			return -1, pos
		}
		if eq(v - 1) {
			return v - 1, pos
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
	_, pos := x.probe(h, func(int32) bool { return false })
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
