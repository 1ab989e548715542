// Exploration snapshots: at level boundaries the explorer checkpoints
// the arena, parent tree, adjacency and frontier into a single
// CRC-checksummed binary file, written with the same temp-write + fsync
// + rename idiom as the job WAL, so a killed exploration resumes from
// its last completed level instead of recomputing. Files are named
// snap-<fingerprint>-<level>.ckpt — the fingerprint is a SHA-256 of the
// system's SMV rendering, so one snapshot directory safely serves many
// systems (every CEGAR refinement is its own fingerprint) and a
// snapshot never resumes the wrong model. A snapshot with an empty
// frontier marks a completed exploration, which resumes for free.
//
// Layout (all integers little-endian, CRC32/IEEE over everything before
// the trailer):
//
//	magic "PCSN" | version u32 | fingerprint [32]byte
//	level u32 | numStates u32 | stride u32 | numRules u32
//	states  numStates × stride bytes, id order
//	parents numStates × (parentState i32, parentRule i32)
//	adj     numStates × (count u32, count × (rule u32, to u32))
//	frontier count u32, count × id u32, canonical order
//	crc u32
package mc

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"prochecker/internal/ts"
)

const (
	snapshotMagic   = "PCSN"
	snapshotVersion = 1
)

// snapshotFingerprint hashes the system's SMV rendering, which names
// and validates its snapshots. It deliberately excludes tuning like
// MaxStates, so a truncated run's snapshots resume under a bigger
// budget, and it is the hash snapshots have always carried, so a
// snapshot an earlier version wrote still resumes.
func snapshotFingerprint(sys *ts.System) [32]byte {
	return sha256.Sum256([]byte(sys.SMV()))
}

// snapshotPrefix names the per-system snapshot family inside a shared
// directory.
func snapshotPrefix(fp [32]byte) string {
	return "snap-" + hex.EncodeToString(fp[:6]) + "-"
}

// snapWriter streams the payload while folding it into the CRC.
type snapWriter struct {
	w       io.Writer
	crc     uint32
	scratch [8]byte
	err     error
}

func (s *snapWriter) write(b []byte) {
	if s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
	_, s.err = s.w.Write(b)
}

func (s *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.scratch[:4], v)
	s.write(s.scratch[:4])
}

func (s *snapWriter) i32(v int32) { s.u32(uint32(v)) }

// writeSnapshot checkpoints the exploration as of e.g.levels completed
// levels. The temp file is created in the target directory, fsynced and
// atomically renamed, and older snapshots of the same system are
// removed only afterwards — a crash at any point leaves the newest
// complete snapshot intact.
func (e *levelExplorer) writeSnapshot() (err error) {
	g := e.g
	dir := e.opts.SnapshotDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mc: creating snapshot dir: %w", err)
	}
	fp := e.snapFP
	final := filepath.Join(dir, fmt.Sprintf("%s%08d.ckpt", snapshotPrefix(fp), e.g.levels))

	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("mc: creating snapshot temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	bw := bufio.NewWriterSize(tmp, 1<<16)
	sw := &snapWriter{w: bw}
	sw.write([]byte(snapshotMagic))
	sw.u32(snapshotVersion)
	sw.write(fp[:])
	n := g.NumStates()
	sw.u32(uint32(e.g.levels))
	sw.u32(uint32(n))
	sw.u32(uint32(g.arena.stride))
	sw.u32(uint32(len(g.Rules)))
	g.arena.forEach(0, func(_ int32, s []byte) bool {
		sw.write(s)
		return sw.err == nil
	})
	for id := 0; id < n; id++ {
		sw.i32(g.parentState.at(int32(id)))
		sw.i32(g.parentRule.at(int32(id)))
	}
	for id := 0; id < n; id++ {
		var edges []graphEdge // none for the frontier
		if id < g.expanded() {
			edges = g.row(int32(id))
		}
		sw.u32(uint32(len(edges)))
		for _, ed := range edges {
			sw.u32(uint32(ed.rule))
			sw.u32(uint32(ed.to))
		}
	}
	sw.u32(uint32(e.hi - e.lo))
	for id := e.lo; id < e.hi; id++ {
		sw.u32(uint32(id))
	}
	if sw.err != nil {
		return fmt.Errorf("mc: writing snapshot: %w", sw.err)
	}
	binary.LittleEndian.PutUint32(sw.scratch[:4], sw.crc)
	if _, err := bw.Write(sw.scratch[:4]); err != nil {
		return fmt.Errorf("mc: writing snapshot checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("mc: flushing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("mc: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("mc: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("mc: publishing snapshot: %w", err)
	}
	removeOlderSnapshots(dir, snapshotPrefix(fp), final)
	return nil
}

// removeOlderSnapshots prunes superseded checkpoints of one system;
// best-effort, the newest file is already durable.
func removeOlderSnapshots(dir, prefix, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		if full := filepath.Join(dir, name); full != keep {
			os.Remove(full)
		}
	}
}

// snapReader parses a fully-read snapshot payload.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (s *snapReader) bytes(n int) []byte {
	if s.err != nil {
		return nil
	}
	if s.off+n > len(s.b) {
		s.err = fmt.Errorf("mc: snapshot truncated at offset %d", s.off)
		return nil
	}
	out := s.b[s.off : s.off+n]
	s.off += n
	return out
}

func (s *snapReader) u32() uint32 {
	b := s.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (s *snapReader) i32() int32 { return int32(s.u32()) }

// tryResume loads the newest valid snapshot of this system from
// opts.SnapshotDir into the explorer, rebuilding the visited set by
// re-ranking or re-hashing the restored arena. A missing, corrupt or
// mismatched snapshot is not an error — exploration simply starts
// fresh; only I/O failure of the directory itself propagates.
func (e *levelExplorer) tryResume() (int, bool, error) {
	dir := e.opts.SnapshotDir
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("mc: reading snapshot dir: %w", err)
	}
	fp := e.snapFP
	prefix := snapshotPrefix(fp)
	var names []string
	for _, ent := range entries {
		if n := ent.Name(); strings.HasPrefix(n, prefix) && strings.HasSuffix(n, ".ckpt") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded level: newest first
	for _, name := range names {
		lvl, ok := e.loadSnapshot(filepath.Join(dir, name), fp)
		if ok {
			return lvl, true, nil
		}
	}
	return 0, false, nil
}

// loadSnapshot restores one checkpoint file; any validation failure
// (checksum, version, fingerprint, structural bounds) rejects the file.
func (e *levelExplorer) loadSnapshot(path string, fp [32]byte) (int, bool) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < 4 {
		return 0, false
	}
	payload, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return 0, false
	}
	r := &snapReader{b: payload}
	if string(r.bytes(4)) != snapshotMagic || r.u32() != snapshotVersion {
		return 0, false
	}
	if !bytesEqual(r.bytes(32), fp[:]) {
		return 0, false
	}
	g := e.g
	level := int(r.u32())
	n := int(r.u32())
	stride := int(r.u32())
	nRules := int(r.u32())
	if r.err != nil || stride != g.arena.stride || nRules != len(g.Rules) ||
		n < 1 || n > maxArenaStates {
		return 0, false
	}
	states := r.bytes(n * stride)
	if r.err != nil {
		return 0, false
	}
	for i, x := range states {
		if int(x) >= e.domains[i%stride] {
			return 0, false
		}
	}

	var parentState, parentRule int32Pages
	for id := 0; id < n; id++ {
		parentState.append(r.i32())
		parentRule.append(r.i32())
	}
	// The adjacency is read into edge segments through the builders' row
	// writer; the frontier must be the id suffix without rows, as the
	// explorer leaves it at every level.
	adj := &StateGraph{System: g.System, off: pagesOf(0)}
	for id := 0; id < n && r.err == nil; id++ {
		count := int(r.u32())
		if count > len(g.Rules) {
			return 0, false
		}
		row, err := adj.reserveRow(count)
		if err != nil {
			return 0, false
		}
		for i := 0; i < count; i++ {
			rule, to := r.i32(), r.i32()
			if rule < 0 || int(rule) >= nRules || to < 0 || int(to) >= n {
				return 0, false
			}
			row = append(row, graphEdge{rule: rule, to: to})
		}
		adj.closeRow(row)
	}
	nFrontier := int(r.u32())
	lo := n - nFrontier
	if r.err != nil || nFrontier > n || lo < 0 {
		return 0, false
	}
	for i := 0; i < nFrontier; i++ {
		if int(r.i32()) != lo+i || len(adj.row(int32(lo+i))) != 0 {
			return 0, false
		}
	}
	if r.err != nil || r.off != len(r.b) {
		return 0, false
	}

	// Rebuild the arena and the visited set by re-ranking or re-hashing
	// the restored states; the (still empty) hash index is sized once up
	// front, since the slot-only table cannot rehash in place. The arena is empty here (resume runs
	// before any interning), so ids come out dense and in order by
	// construction.
	if g.arena.len() != 0 {
		return 0, false
	}
	if e.index != nil {
		e.index.reserve(n)
	}
	for id := 0; id < n; id++ {
		s := states[id*stride : (id+1)*stride]
		k := e.key(s)
		aid, err := g.arena.append(s)
		if err != nil || int(aid) != id {
			return 0, false
		}
		if e.ranks != nil {
			e.ranks.ids[k] = aid
		} else {
			e.index.add(k, aid)
		}
	}
	g.parentState = parentState
	g.parentRule = parentRule
	adj.off.n = lo + 1 // the frontier's empty rows are not rows
	g.off, g.segs = adj.off, adj.segs
	e.lo, e.hi = int32(lo), int32(n)
	e.g.levels = level
	return level, true
}
