package mc

import (
	"math"
	"slices"
	"testing"

	"prochecker/internal/ts"
)

// TestArenaSegmentBoundaries fills arenas past two segment boundaries,
// for a one-byte and a multi-byte stride, and checks that ids, views
// and id-order streaming agree on both sides of every boundary. For the
// multi-byte stride, whose states are all distinct, it then interns the
// same states through the hash index, so ensureIndex rehashes across
// segments, and looks every state up again. One-byte states repeat
// every 256 ids, so that stride checks the arena alone.
func TestArenaSegmentBoundaries(t *testing.T) {
	for _, stride := range []int{1, 3} {
		// state is id i's bytes: i in little-endian, cut to the stride.
		state := func(i int) []byte {
			s := make([]byte, stride)
			for b := range s {
				s[b] = byte(i >> (8 * b))
			}
			return s
		}
		a := newStateArena(stride)
		n := 2*a.perSeg + 3
		for i := 0; i < n; i++ {
			if id, err := a.append(state(i)); err != nil || int(id) != i {
				t.Fatalf("stride %d: append %d returned id %d, error %v", stride, i, id, err)
			}
		}
		if a.len() != n || len(a.segs) != 3 {
			t.Fatalf("stride %d: %d states in %d segments, want %d in 3", stride, a.len(), len(a.segs), n)
		}
		if want := int64(3 * a.perSeg * stride); a.memBytes() != want {
			t.Errorf("stride %d: memBytes %d, want %d", stride, a.memBytes(), want)
		}
		for _, id := range []int{0, a.perSeg - 1, a.perSeg, 2*a.perSeg - 1, 2 * a.perSeg, n - 1} {
			s := a.at(int32(id))
			if !slices.Equal(s, state(id)) || cap(s) != stride {
				t.Errorf("stride %d: at(%d) = %v (cap %d), want %v (cap %d)", stride, id, s, cap(s), state(id), stride)
			}
		}
		g := &StateGraph{arena: a}
		next := 0
		g.forEachState(0, func(id int32, s ts.State) bool {
			if int(id) != next || !slices.Equal(s, state(next)) {
				t.Fatalf("stride %d: forEachState gave state %d = %v at position %d, want %v", stride, id, s, next, state(next))
			}
			next++
			return true
		})
		if next != n {
			t.Fatalf("stride %d: forEachState streamed %d states, want %d", stride, next, n)
		}
		next = 0
		g.forEachState(0, func(id int32, _ ts.State) bool {
			next++
			return int(id) < a.perSeg
		})
		if next != a.perSeg+1 {
			t.Errorf("stride %d: forEachState stopped after %d states, want %d", stride, next, a.perSeg+1)
		}
		if stride == 1 {
			continue
		}

		e := &levelExplorer{g: &StateGraph{arena: newStateArena(stride)}, index: newStateIndex()}
		for i := 0; i < n; i++ {
			s := state(i)
			e.ensureIndex(1)
			if id, err := e.intern(s, hashState(s), -1, -1); err != nil || int(id) != i {
				t.Fatalf("stride %d: intern %d returned id %d, error %v", stride, i, id, err)
			}
		}
		// Grow once more, so the rehash walks all three segments.
		slots := len(e.index.slots)
		e.ensureIndex(e.index.used)
		if len(e.index.slots) <= slots {
			t.Fatalf("stride %d: ensureIndex kept %d slots for %d more states", stride, slots, e.index.used)
		}
		for i := 0; i < n+2; i++ {
			want := int32(i)
			if i >= n {
				want = -1
			}
			s := state(i)
			if id, _ := e.lookup(hashState(s), s); id != want {
				t.Fatalf("stride %d: lookup of state %d gave id %d, want %d", stride, i, id, want)
			}
		}
		if id, err := e.intern(state(2*a.perSeg), hashState(state(2*a.perSeg)), -1, -1); err != nil ||
			int(id) != 2*a.perSeg || e.g.NumStates() != n {
			t.Fatalf("stride %d: re-intern gave id %d with %d states, error %v", stride, id, e.g.NumStates(), err)
		}
	}
}

// TestEdgeSegmentBoundaries writes synthetic rows through the builders'
// row writer (reserveRow, closeRow) and reads every one back through
// row(): empty rows, on both sides of a segment boundary; a row that
// exactly fills a segment; a row that does not fit the open segment's
// tail and skips to the next one; a reservation larger than the row
// written into it, as a derived build makes, both with and without
// edges, the latter leaving the next row to fill the old tail; and five
// segments in all.
func TestEdgeSegmentBoundaries(t *testing.T) {
	g := &StateGraph{System: "edges", off: []int32{0}}
	var want [][]graphEdge
	write := func(reserve, n int) {
		t.Helper()
		row, err := g.reserveRow(reserve)
		if err != nil || len(row) != 0 || cap(row) != reserve {
			t.Fatalf("row %d: reserveRow(%d) gave len %d cap %d, error %v", len(want), reserve, len(row), cap(row), err)
		}
		edges := make([]graphEdge, n)
		for i := range edges {
			edges[i] = graphEdge{rule: int32(len(want)), to: int32(i)}
		}
		g.closeRow(append(row, edges...))
		want = append(want, edges)
	}
	segs := func(n int) {
		t.Helper()
		if len(g.segs) != n {
			t.Fatalf("after row %d: %d segments, want %d", len(want)-1, len(g.segs), n)
		}
	}
	write(0, 0)
	segs(0)
	write(3, 3)
	write(0, 0)
	write(edgeSegLen-3, edgeSegLen-3) // fills segment 0 exactly
	write(0, 0)
	segs(1)
	write(edgeSegLen-2, edgeSegLen-2) // segment 1, two edges left
	write(3, 3)                       // skips to segment 2
	segs(3)
	write(edgeSegLen-8, 2) // a reservation that fits, mostly unused
	write(edgeSegLen, 5)   // skips to segment 3, five edges used
	segs(4)
	write(edgeSegLen-4, 0) // allocates segment 4 ahead, but writes nothing
	segs(5)
	write(edgeSegLen-5, edgeSegLen-5) // fills segment 3's tail exactly
	write(1, 1)                       // starts segment 4, already there
	segs(5)
	if g.expanded() != len(want) {
		t.Fatalf("%d rows written, %d expanded", len(want), g.expanded())
	}
	for id, w := range want {
		got := g.row(int32(id))
		if !slices.Equal(got, w) || cap(got) != len(got) {
			t.Fatalf("row %d: %d edges (cap %d), want %d: %v", id, len(got), cap(got), len(w), w)
		}
	}
	if got := g.row(int32(len(want))); got != nil {
		t.Errorf("unexpanded state has row %v", got)
	}
	if want := int64(5 * edgeSegLen * 8); g.edgeBytes() != want {
		t.Errorf("edgeBytes %d, want %d", g.edgeBytes(), want)
	}
	if _, err := g.reserveRow(edgeSegLen + 1); err == nil {
		t.Error("a row longer than a segment was reserved")
	}
	full := &StateGraph{System: "full", off: []int32{math.MaxInt32 - 2}}
	if _, err := full.reserveRow(5); err == nil {
		t.Error("a row past MaxInt32 edges, padding included, was reserved")
	}
}
