// Package wal implements the segmented append-only write-ahead log that
// makes the live ingest→retrain→swap loop durable. Records are opaque
// byte payloads framed with a length and a CRC32C; frames are appended to
// segment files that rotate at a size threshold; and an explicit fsync
// policy bounds how much a power loss can take (one record, one batch, or
// one sync interval).
//
// Crash recovery is the point of the format: Open scans every segment,
// verifies each frame's checksum, truncates a torn tail off the final
// segment (a crash mid-write leaves a partial frame; everything before it
// is intact by construction), and reports exactly which records survived.
// A torn or corrupt frame in a non-final segment is not a crash signature
// — earlier segments were sealed by a sync before rotation — so it is
// reported as corruption instead of being silently dropped.
//
// The log knows nothing about its payloads. internal/stream encodes
// map-matched trajectory observations and retrain markers into it and
// decodes them back out: from the recovery scan of Open, which hands each
// intact record to a callback, or read-only through ReplayDir.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pathrank/internal/fault"
)

// Segment file layout (all integers big-endian):
//
//	offset  size  field
//	     0     8  magic "PRWALSEG"
//	     8     4  format version (uint32) = 1
//	    12     8  index of the segment's first record (uint64)
//	    20     *  frames
//
// Frame layout:
//
//	0     4  payload length n (uint32, 1..maxRecord)
//	4     4  CRC32C (Castagnoli) of the payload
//	8     n  payload
const (
	segHeaderSize = 20
	frameHeader   = 8
	walVersion    = 1
)

var segMagic = [8]byte{'P', 'R', 'W', 'A', 'L', 'S', 'E', 'G'}

// maxRecord bounds a single payload (16 MiB); a length field beyond it is
// treated as corruption rather than an allocation request.
const maxRecord = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Error sentinels, matchable with errors.Is.
var (
	// ErrCorrupt reports a damaged frame outside the final segment's tail
	// (where damage is a crash signature and is repaired by truncation).
	ErrCorrupt = errors.New("wal: corrupt segment")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log is closed")
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncBatch fsyncs only on explicit Sync calls, rotation, and Close.
	// The caller decides the durability points (the stream retrainer syncs
	// before committing a generation); a crash loses records appended
	// since the last Sync. This is the default.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every Append. Nothing acknowledged is ever
	// lost, at the price of one fsync per record on the ingest path.
	SyncAlways
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery). A
	// crash loses at most one interval of records.
	SyncInterval
)

// String returns the flag-style name of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "batch"
	}
}

// ParseSyncPolicy parses the flag-style policy names "batch", "always"
// and "interval".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "batch":
		return SyncBatch, nil
	case "always", "record", "per-record":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	default:
		return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want batch, always or interval)", s)
	}
}

// Options parameterizes Open. The zero value is usable: 4 MiB segments,
// batch fsync, unlimited retention.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one reaches
	// this size (default 4 MiB, minimum 4 KiB). A record larger than the
	// threshold still fits: rotation happens between records, never inside
	// a frame.
	SegmentBytes int64
	// Sync is the fsync policy.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval cadence (default 200ms).
	SyncEvery time.Duration
	// Retain, when positive, caps the number of sealed (non-active)
	// segments kept on disk: after each rotation the oldest are deleted
	// until the cap holds. 0 keeps everything — required for full-history
	// replay; see the README's retention trade-offs.
	Retain int
	// OnSync, when non-nil, observes the duration of every fsync batch as
	// it completes. The stream layer wires it into a latency histogram so
	// scrapes see the fsync distribution, not just the mean that Stats
	// reports. The callback runs with the log's lock held: it must be fast
	// and must not call back into the log.
	OnSync func(d time.Duration)
}

// Recovery describes what Open found on disk.
type Recovery struct {
	// Records is the number of intact records recovered.
	Records int
	// FirstIndex and LastIndex are the recovered record index range
	// (1-based; both 0 when the log was empty).
	FirstIndex, LastIndex uint64
	// Segments is the number of segment files after recovery.
	Segments int
	// TornBytes is the size of the torn tail truncated off the final
	// segment (0 for a clean shutdown).
	TornBytes int64
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Segments is the current number of segment files (including active).
	Segments int
	// FirstIndex and LastIndex bound the records currently in the log.
	FirstIndex, LastIndex uint64
	// SyncedIndex is the highest record index known to be on stable
	// storage; records above it are lost by a crash.
	SyncedIndex uint64
	// Appends counts successful Append calls since Open.
	Appends int64
	// Syncs counts fsync batches; SyncNanos accumulates their latency, so
	// SyncNanos/Syncs is the mean fsync cost under the current policy.
	Syncs     int64
	SyncNanos int64
	// Recovered and TornBytes carry the Open-time Recovery forward.
	Recovered int
	TornBytes int64
}

// Log is a segmented append-only record log. Append, Sync and Stats are
// safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File // active segment
	size      int64    // bytes written to the active segment
	segs      []segInfo
	nextIndex uint64 // index the next Append receives
	synced    uint64 // highest index fsynced
	appends   int64
	syncs     int64
	syncNanos int64
	rec       Recovery
	closed    bool
	stopTick  chan struct{}
	tickDone  chan struct{}
}

// segInfo is one on-disk segment.
type segInfo struct {
	path  string
	first uint64 // index of its first record
}

// segName formats the canonical segment filename for a first index.
func segName(first uint64) string {
	return fmt.Sprintf("%016x.wal", first)
}

// Open opens (or creates) the log in dir, running crash recovery: every
// segment is scanned, a torn tail on the final segment is truncated, and
// the next append index is positioned after the last intact record. The
// scan hands every intact record, in index order, to fn (nil skips them),
// so a caller rebuilds its state from the log in the same pass. The
// payload slice is reused between calls — fn must copy anything it
// retains — and an error from fn fails Open.
func Open(dir string, opts Options, fn func(index uint64, payload []byte) error) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SegmentBytes < 4<<10 {
		opts.SegmentBytes = 4 << 10
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 200 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, nextIndex: 1}

	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		path := filepath.Join(dir, name)
		info, err := recoverSegment(path, i == len(names)-1, &l.rec, fn)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, info)
	}
	l.rec.Segments = len(l.segs)
	if l.rec.Records > 0 {
		l.nextIndex = l.rec.LastIndex + 1
	} else if len(l.segs) > 0 {
		// Segments exist but hold no intact records (e.g. a crash right
		// after rotation): continue from the last segment's first index.
		l.nextIndex = l.segs[len(l.segs)-1].first
	}
	// Everything recovered is on disk by definition.
	l.synced = l.nextIndex - 1

	// Open (or create) the active segment for appending.
	if len(l.segs) == 0 {
		if err := l.openSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		last := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.size = f, st.Size()
	}

	if opts.Sync == SyncInterval {
		l.stopTick = make(chan struct{})
		l.tickDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// listSegments returns the segment filenames in dir in index order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded hex first-index names sort correctly
	return names, nil
}

// recoverSegment validates one segment, handing its intact records to fn
// and counting them into rec. For the final segment a damaged tail is
// truncated off the file; for earlier segments any damage is ErrCorrupt.
func recoverSegment(path string, isLast bool, rec *Recovery, fn func(uint64, []byte) error) (segInfo, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return segInfo{}, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	first, intact, records, damage, err := scanSegmentCall(f, path, fn)
	if err != nil {
		return segInfo{}, err
	}
	if damage > 0 && !isLast {
		return segInfo{}, fmt.Errorf("%w: %s: damaged frame %d bytes before a later segment exists", ErrCorrupt, path, damage)
	}
	if damage > 0 {
		if err := f.Truncate(intact); err != nil {
			return segInfo{}, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return segInfo{}, fmt.Errorf("wal: %w", err)
		}
		rec.TornBytes += damage
	}
	if records > 0 {
		if rec.Records == 0 {
			rec.FirstIndex = first
		}
		rec.LastIndex = first + uint64(records) - 1
		rec.Records += records
	}
	return segInfo{path: path, first: first}, nil
}

// openSegmentLocked creates a fresh active segment starting at nextIndex
// and durably records its existence (file fsync + directory fsync), so a
// crash immediately after rotation cannot lose the segment itself.
func (l *Log) openSegmentLocked() error {
	if err := fault.Check(fault.SiteWALRotate); err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	path := filepath.Join(l.dir, segName(l.nextIndex))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var header [segHeaderSize]byte
	copy(header[0:8], segMagic[:])
	binary.BigEndian.PutUint32(header[8:12], walVersion)
	binary.BigEndian.PutUint64(header[12:20], l.nextIndex)
	if _, err := f.Write(header[:]); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	l.f, l.size = f, segHeaderSize
	l.segs = append(l.segs, segInfo{path: path, first: l.nextIndex})
	return nil
}

// syncDir fsyncs a directory so metadata operations (create, rename,
// remove) inside it survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}

// Append writes one record and returns its index (1-based, monotonically
// increasing across segments and restarts). Under SyncAlways the record is
// on stable storage when Append returns; under the other policies it is
// durable after the next Sync / interval tick.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("wal: empty record")
	}
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	// Chaos hook: an injected append failure is a clean rejection before
	// any frame bytes are written — the disk said no, the log stays intact.
	if err := fault.Check(fault.SiteWALAppend); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	var fh [frameHeader]byte
	binary.BigEndian.PutUint32(fh[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(fh[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.f.Write(fh[:]); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.size += frameHeader + int64(len(payload))
	idx := l.nextIndex
	l.nextIndex++
	l.appends++
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// rotateLocked seals the active segment (fsync) and opens the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.openSegmentLocked(); err != nil {
		return err
	}
	return l.retainLocked()
}

// retainLocked enforces Options.Retain by deleting the oldest sealed
// segments beyond the cap.
func (l *Log) retainLocked() error {
	if l.opts.Retain <= 0 {
		return nil
	}
	// Sealed segments are all but the last; keep the newest Retain of them.
	for len(l.segs)-1 > l.opts.Retain {
		victim := l.segs[0]
		if err := os.Remove(victim.path); err != nil {
			return fmt.Errorf("wal: retention: %w", err)
		}
		l.segs = l.segs[1:]
	}
	return syncDir(l.dir)
}

// Sync flushes everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.synced == l.nextIndex-1 {
		return nil // nothing new
	}
	// Chaos hook: placed after the nothing-new fast path so an injected
	// fsync failure only fires when there is genuinely unsynced data.
	if err := fault.Check(fault.SiteWALSync); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	d := time.Since(start)
	l.syncNanos += d.Nanoseconds()
	l.syncs++
	l.synced = l.nextIndex - 1
	if l.opts.OnSync != nil {
		l.opts.OnSync(d)
	}
	return nil
}

// syncLoop is the SyncInterval background fsync.
func (l *Log) syncLoop() {
	defer close(l.tickDone)
	tick := time.NewTicker(l.opts.SyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-l.stopTick:
			return
		case <-tick.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// ReplayDir replays the records of a log directory without opening it for
// appending — the read-only path pathrank-train -replay uses. It hands fn
// the records Open's recovery scan would, in index order and under the
// same payload-reuse rule; an error from fn stops the replay and is
// returned. Damage on the final segment's tail is skipped (not repaired);
// damage anywhere else is ErrCorrupt.
func ReplayDir(dir string, fn func(index uint64, payload []byte) error) error {
	names, err := listSegments(dir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("wal: no segments in %s", dir)
	}
	for i, name := range names {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		_, _, _, damage, err := scanSegmentCall(f, path, fn)
		f.Close()
		if err != nil {
			return err
		}
		if damage > 0 && i != len(names)-1 {
			return fmt.Errorf("%w: %s: damaged frame before a later segment exists", ErrCorrupt, path)
		}
	}
	return nil
}

// scanSegmentCall is the one frame walk under both recovery and replay.
// It reads the segment named name from its start and returns the first
// record index from the header, the byte offset after the last intact
// frame, the count of intact frames, and the number of trailing damaged
// bytes (0 for a clean segment). Frames are validated in order; cb, when
// non-nil, receives each intact record's global index (header first index
// + offset) and a payload slice valid only for the duration of the call.
// An unreadable header is ErrCorrupt; an error from cb stops the walk and
// is returned as it is.
func scanSegmentCall(r io.ReadSeeker, name string, cb func(uint64, []byte) error) (first uint64, intact int64, records int, damage int64, err error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrCorrupt, name, fmt.Sprintf(format, args...))
	}
	if _, err = r.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, 0, corrupt("%v", err)
	}
	end, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, 0, 0, corrupt("%v", err)
	}
	if _, err = r.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, 0, corrupt("%v", err)
	}
	var header [segHeaderSize]byte
	if _, herr := io.ReadFull(r, header[:]); herr != nil {
		return 0, 0, 0, 0, corrupt("short header: %v", herr)
	}
	if [8]byte(header[0:8]) != segMagic {
		return 0, 0, 0, 0, corrupt("bad magic %q", header[0:8])
	}
	if v := binary.BigEndian.Uint32(header[8:12]); v != walVersion {
		return 0, 0, 0, 0, corrupt("unsupported segment version %d", v)
	}
	first = binary.BigEndian.Uint64(header[12:20])
	intact = segHeaderSize

	var fh [frameHeader]byte
	buf := make([]byte, 0, 4096)
	for {
		if end-intact == 0 {
			return
		}
		if end-intact < frameHeader {
			damage = end - intact
			return
		}
		if _, rerr := io.ReadFull(r, fh[:]); rerr != nil {
			damage = end - intact
			return
		}
		n := binary.BigEndian.Uint32(fh[0:4])
		if n == 0 || n > maxRecord || int64(n) > end-intact-frameHeader {
			damage = end - intact
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, rerr := io.ReadFull(r, payload); rerr != nil {
			damage = end - intact
			return
		}
		if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(fh[4:8]) {
			damage = end - intact
			return
		}
		if cb != nil {
			if err = cb(first+uint64(records), payload); err != nil {
				return
			}
		}
		intact += frameHeader + int64(n)
		records++
	}
}

// Recovery returns what Open found on disk.
func (l *Log) Recovery() Recovery {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:    len(l.segs),
		LastIndex:   l.nextIndex - 1,
		SyncedIndex: l.synced,
		Appends:     l.appends,
		Syncs:       l.syncs,
		SyncNanos:   l.syncNanos,
		Recovered:   l.rec.Records,
		TornBytes:   l.rec.TornBytes,
	}
	if len(l.segs) > 0 {
		st.FirstIndex = l.segs[0].first
	}
	return st
}

// Close syncs and closes the log. Further calls error with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	err := l.syncLocked()
	l.closed = true
	cerr := l.f.Close()
	stop := l.stopTick
	done := l.tickDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("wal: %w", cerr)
	}
	return nil
}
