package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"prochecker/internal/obs"
)

// RecordType names one WAL record kind.
type RecordType string

// The WAL record vocabulary. A job's lifecycle is journalled as one
// RecSubmitted, zero or more RecStarted (one per attempt), and at most
// one RecTerminal; RecMeta carries opaque payloads for the layers above
// the job service (the HTTP server persists campaign membership with
// it).
const (
	RecSubmitted RecordType = "submitted"
	RecStarted   RecordType = "started"
	RecTerminal  RecordType = "terminal"
	RecMeta      RecordType = "meta"
)

// Record is one WAL entry. Which fields are meaningful depends on Type:
// submitted carries the spec and key, started the attempt number,
// terminal the final state with its resilience class, and meta an
// opaque payload. At is informational wall time; replay never orders by
// it (append order is the order of record).
type Record struct {
	Type     RecordType      `json:"type"`
	ID       string          `json:"id,omitempty"`
	Key      string          `json:"key,omitempty"`
	Spec     *Spec           `json:"spec,omitempty"`
	Attempt  int             `json:"attempt,omitempty"`
	State    State           `json:"state,omitempty"`
	Class    string          `json:"class,omitempty"`
	Error    string          `json:"error,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Meta     json.RawMessage `json:"meta,omitempty"`
	At       time.Time       `json:"at,omitempty"`
}

// DefaultSegmentBytes rotates a WAL segment once it grows past this
// size; compaction then reclaims the closed segments.
const DefaultSegmentBytes = 1 << 20

// walSegment matches the files a WAL owns: wal-<seq>.log.
var walSegment = regexp.MustCompile(`^wal-(\d{6})\.log$`)

// WAL is an append-only, checksummed, segment-rotated journal of job
// lifecycle records. Appends are flushed to the OS immediately (a
// SIGKILLed process loses nothing already appended) and fsynced in
// batches by a background group-commit goroutine, so a burst of commits
// costs one disk sync. Safe for concurrent use; nil-safe like Store, so
// a service without a WAL calls through no-ops.
type WAL struct {
	dir      string
	segBytes int64
	reg      *obs.Registry

	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	seg    int   // current segment sequence
	size   int64 // bytes in the current segment
	dirty  bool  // appended since the last fsync
	closed bool

	syncCh   chan struct{} // group-commit wakeups (buffered, coalescing)
	syncDone chan struct{}
}

// OpenWAL opens (creating if needed) the WAL rooted at dir, replays
// every intact record from its segments in order, and positions the log
// for appending. A torn tail — a partially-written final record from a
// crash mid-append — is tolerated: replay stops at the last intact
// record and the tail is truncated away so fresh appends never
// interleave with garbage. Records failing their checksum likewise end
// that segment's replay (counted in wal.replay_skipped).
func OpenWAL(dir string, reg *obs.Registry) (*WAL, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: creating wal dir: %w", err)
	}
	w := &WAL{
		dir:      dir,
		segBytes: DefaultSegmentBytes,
		reg:      reg,
		syncCh:   make(chan struct{}, 1),
		syncDone: make(chan struct{}),
	}
	segs, err := w.segments()
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	for _, seg := range segs {
		segRecs, err := w.replaySegment(seg)
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, segRecs...)
	}
	reg.Gauge("wal.records_replayed").Set(int64(len(recs)))

	// Append to the last segment, or start the first.
	w.seg = 1
	if len(segs) > 0 {
		w.seg = segs[len(segs)-1]
	}
	if err := w.openSegment(w.seg, os.O_APPEND); err != nil {
		return nil, nil, err
	}
	go w.syncLoop()
	return w, recs, nil
}

// segments lists the existing segment sequence numbers in order.
func (w *WAL) segments() ([]int, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: reading wal dir: %w", err)
	}
	var segs []int
	for _, e := range entries {
		m := walSegment.FindStringSubmatch(e.Name())
		if e.IsDir() || m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

func (w *WAL) segPath(seg int) string {
	return filepath.Join(w.dir, fmt.Sprintf("wal-%06d.log", seg))
}

// replaySegment reads one segment's intact prefix, truncating a torn or
// corrupt tail so the segment is clean for appending.
func (w *WAL) replaySegment(seg int) ([]Record, error) {
	f, err := os.Open(w.segPath(seg))
	if err != nil {
		return nil, fmt.Errorf("jobs: opening wal segment: %w", err)
	}
	defer f.Close()
	var recs []Record
	var good int64 // offset just past the last intact record
	rd := bufio.NewReader(f)
	for {
		line, rerr := rd.ReadBytes('\n')
		if len(line) > 0 {
			rec, ok := decodeRecord(line)
			if !ok {
				// Torn tail (no newline) or checksum/JSON damage: stop
				// replaying this segment and drop everything from here.
				w.reg.Counter("wal.replay_skipped").Inc()
				break
			}
			recs = append(recs, rec)
			good += int64(len(line))
		}
		if rerr != nil {
			if rerr != io.EOF {
				return nil, fmt.Errorf("jobs: reading wal segment: %w", rerr)
			}
			break
		}
	}
	if info, serr := f.Stat(); serr == nil && info.Size() > good {
		if terr := os.Truncate(w.segPath(seg), good); terr != nil {
			return nil, fmt.Errorf("jobs: truncating torn wal tail: %w", terr)
		}
		w.reg.Counter("wal.torn_tails").Inc()
	}
	return recs, nil
}

// encodeRecord renders one record line: an 8-hex-digit CRC32 of the
// JSON payload, a space, the payload, a newline.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding wal record: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = append(line, fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))...)
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeRecord parses one line back, verifying its checksum.
func decodeRecord(line []byte) (Record, bool) {
	if len(line) < 11 || line[len(line)-1] != '\n' || line[8] != ' ' {
		return Record{}, false
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return Record{}, false
	}
	payload := line[9 : len(line)-1]
	if crc32.ChecksumIEEE(payload) != uint32(sum) {
		return Record{}, false
	}
	var rec Record
	if json.Unmarshal(payload, &rec) != nil {
		return Record{}, false
	}
	return rec, true
}

// openSegment (re)opens the current segment file and its writer.
// mode is os.O_APPEND to continue a segment or os.O_TRUNC to start it
// fresh.
func (w *WAL) openSegment(seg int, mode int) error {
	f, err := os.OpenFile(w.segPath(seg), os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: opening wal segment: %w", err)
	}
	size := int64(0)
	if mode == os.O_APPEND {
		if info, serr := f.Stat(); serr == nil {
			size = info.Size()
		}
	}
	w.f, w.w, w.seg, w.size = f, bufio.NewWriter(f), seg, size
	w.reg.Gauge("wal.segment").Set(int64(seg))
	return nil
}

// Append journals one record: written and flushed to the OS before
// returning (crash-of-this-process safe), fsynced shortly after by the
// batched group-commit loop (power-loss safe once Sync has run).
// Rotates to a new segment past the size bound.
func (w *WAL) Append(rec Record) error {
	if w == nil {
		return nil
	}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("jobs: append to closed wal")
	}
	if w.size > w.segBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := w.w.Write(line); err != nil {
		return fmt.Errorf("jobs: appending wal record: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("jobs: flushing wal: %w", err)
	}
	w.size += int64(len(line))
	w.dirty = true
	w.reg.Counter("wal.appends").Inc()
	w.reg.Counter("wal.bytes").Add(int64(len(line)))
	// Coalescing wakeup: if a sync is already pending, this commit rides
	// along with it — that is the fsync batching.
	select {
	case w.syncCh <- struct{}{}:
	default:
	}
	return nil
}

// rotateLocked closes the current segment and starts the next one.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("jobs: closing wal segment: %w", err)
	}
	w.reg.Counter("wal.rotations").Inc()
	return w.openSegment(w.seg+1, os.O_TRUNC)
}

// syncLoop is the group-commit goroutine: each wakeup fsyncs everything
// appended so far, so bursts of appends share one disk sync.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	for range w.syncCh {
		w.mu.Lock()
		w.syncLocked() //nolint:errcheck // next Sync/Append surfaces it
		w.mu.Unlock()
	}
}

func (w *WAL) syncLocked() error {
	if !w.dirty || w.closed {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("jobs: flushing wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobs: syncing wal: %w", err)
	}
	w.dirty = false
	w.reg.Counter("wal.syncs").Inc()
	return nil
}

// Sync forces an immediate fsync of everything appended — the
// checkpoint barrier Drain uses before reporting a clean shutdown.
func (w *WAL) Sync() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// Compact rewrites the WAL as one fresh segment holding exactly the
// given records (the caller's condensed live state: one submitted /
// started / terminal triple per job instead of its full history) and
// removes every older segment. The new segment is published with a
// temp-write + rename so a crash mid-compaction leaves the old
// segments intact.
func (w *WAL) Compact(recs []Record) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("jobs: compacting closed wal")
	}
	tmp, err := os.CreateTemp(w.dir, "compact-*")
	if err != nil {
		return fmt.Errorf("jobs: compacting wal: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	var size int64
	for _, rec := range recs {
		line, err := encodeRecord(rec)
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		if _, err := bw.Write(line); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("jobs: compacting wal: %w", err)
		}
		size += int64(len(line))
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compacting wal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: syncing compacted wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compacting wal: %w", err)
	}

	// Publish the compacted state as the next segment, then drop every
	// older one. Replay order stays correct: the new segment has the
	// highest sequence and is the only survivor.
	oldSegs, err := w.segments()
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	next := w.seg + 1
	if err := os.Rename(tmp.Name(), w.segPath(next)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: publishing compacted wal: %w", err)
	}
	w.f.Close() //nolint:errcheck // segment is superseded either way
	for _, seg := range oldSegs {
		os.Remove(w.segPath(seg))
	}
	if err := w.openSegment(next, os.O_APPEND); err != nil {
		return err
	}
	w.dirty = false
	w.reg.Counter("wal.compactions").Inc()
	return nil
}

// Close fsyncs and closes the WAL; further appends fail.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	err := w.syncLocked()
	w.closed = true
	close(w.syncCh)
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("jobs: closing wal: %w", cerr)
	}
	w.mu.Unlock()
	<-w.syncDone
	return err
}
