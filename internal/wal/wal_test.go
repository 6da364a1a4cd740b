package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// record fabricates a deterministic payload for index i (variable length,
// so frames land at irregular offsets).
func record(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d:%s", i, string(make([]byte, i%7))))
}

// reopen opens the log in dir and returns it with every record its
// recovery scan delivered, as a map from index to payload copy, and the
// indexes in delivery order.
func reopen(t *testing.T, dir string, opts Options) (*Log, map[uint64][]byte, []uint64) {
	t.Helper()
	out := map[uint64][]byte{}
	var idxs []uint64
	l, err := Open(dir, opts, func(idx uint64, p []byte) error {
		out[idx] = append([]byte(nil), p...)
		idxs = append(idxs, idx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, out, idxs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		idx, err := l.Append(record(i))
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(i) {
			t.Fatalf("append %d returned index %d", i, idx)
		}
	}
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}

	// Clean reopen: everything recovered and replayed, index sequence
	// continues.
	l2, got, _ := reopen(t, dir, Options{})
	defer l2.Close()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := 1; i <= n; i++ {
		if string(got[uint64(i)]) != string(record(i)) {
			t.Fatalf("record %d corrupted in replay", i)
		}
	}
	rec := l2.Recovery()
	if rec.Records != n || rec.FirstIndex != 1 || rec.LastIndex != n || rec.TornBytes != 0 {
		t.Fatalf("recovery after clean shutdown: %+v", rec)
	}
	if idx, err := l2.Append(record(n + 1)); err != nil || idx != n+1 {
		t.Fatalf("continuation append: idx=%d err=%v", idx, err)
	}
}

func TestSegmentRotationAndStats(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512)
	const n = 40 // ~21 KiB of frames over 4 KiB segments
	for i := 0; i < n; i++ {
		payload[0] = byte(i)
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation into >=3 segments, got %d", st.Segments)
	}
	if st.LastIndex != n || st.Appends != n {
		t.Fatalf("stats: %+v", st)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != st.Segments || !sort.StringsAreSorted(names) {
		t.Fatalf("segment files %v vs stats %d", names, st.Segments)
	}
	// Replay crosses segment boundaries in order.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _, idxs := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	defer l.Close()
	if len(idxs) != n || idxs[0] != 1 || idxs[n-1] != n {
		t.Fatalf("replay indexes truncated: %d records, first %d last %d", len(idxs), idxs[0], idxs[len(idxs)-1])
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i] != idxs[i-1]+1 {
			t.Fatalf("replay indexes not contiguous at %d", i)
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncAlways}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 1; i <= 3; i++ {
			if _, err := l.Append(record(i)); err != nil {
				t.Fatal(err)
			}
			if st := l.Stats(); st.SyncedIndex != uint64(i) {
				t.Fatalf("after append %d synced=%d", i, st.SyncedIndex)
			}
		}
		if st := l.Stats(); st.Syncs != 3 || st.SyncNanos <= 0 {
			t.Fatalf("sync counters: %+v", st)
		}
	})
	t.Run("batch", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncBatch}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 1; i <= 3; i++ {
			if _, err := l.Append(record(i)); err != nil {
				t.Fatal(err)
			}
		}
		if st := l.Stats(); st.SyncedIndex != 0 {
			t.Fatalf("batch policy synced eagerly: %+v", st)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.SyncedIndex != 3 || st.Syncs != 1 {
			t.Fatalf("after explicit sync: %+v", st)
		}
		// A no-op sync does not refsync.
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Syncs != 1 {
			t.Fatalf("no-op sync fsynced anyway: %+v", st)
		}
	})
	t.Run("interval", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{Sync: SyncInterval, SyncEvery: 10 * time.Millisecond}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append(record(1)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for l.Stats().SyncedIndex != 1 {
			if time.Now().After(deadline) {
				t.Fatal("interval sync never fired")
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
	if _, err := ParseSyncPolicy("nope"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
	for _, name := range []string{"", "batch", "always", "interval"} {
		if _, err := ParseSyncPolicy(name); err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", name, err)
		}
	}
}

// TestTornTailEveryOffset is the crash-recovery property test: append N
// records across two segments, then for EVERY byte offset of the final
// segment, truncate a copy of the log there, reopen it, and verify that
// exactly the records whose frames lie fully inside the truncated prefix
// are recovered — no more, no fewer — and that appending afterwards works.
func TestTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{SegmentBytes: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill past one rotation so the final segment is the second one.
	payload := make([]byte, 300)
	total := 0
	for l.Stats().Segments < 2 {
		payload[0] = byte(total)
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		total++
	}
	// A few more records into the now-active final segment.
	for i := 0; i < 6; i++ {
		payload[0] = byte(total)
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		total++
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := listSegments(master)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("want exactly 2 segments, got %v", names)
	}
	lastName := names[len(names)-1]
	lastData, err := os.ReadFile(filepath.Join(master, lastName))
	if err != nil {
		t.Fatal(err)
	}

	// How many records does a prefix of `size` bytes of the last segment
	// fully contain? Walk the frames: each frame is 8 + 300 bytes.
	recordsWithin := func(size int64) int {
		count := 0
		off := int64(segHeaderSize)
		frame := int64(frameHeader + len(payload))
		for off+frame <= size {
			off += frame
			count++
		}
		return count
	}
	// Records that live in the first (sealed) segment:
	firstSegRecords := 0
	{
		f, err := os.Open(filepath.Join(master, names[0]))
		if err != nil {
			t.Fatal(err)
		}
		_, _, firstSegRecords, _, err = scanSegmentCall(f, names[0], nil)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	for size := int64(segHeaderSize); size <= int64(len(lastData)); size++ {
		dir := t.TempDir()
		// Copy the intact first segment and the truncated last segment.
		first, err := os.ReadFile(filepath.Join(master, names[0]))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, names[0]), first, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, lastName), lastData[:size], 0o644); err != nil {
			t.Fatal(err)
		}

		delivered := 0
		l2, err := Open(dir, Options{SegmentBytes: 4 << 10}, func(uint64, []byte) error { delivered++; return nil })
		if err != nil {
			t.Fatalf("truncation at %d: open: %v", size, err)
		}
		wantRecords := firstSegRecords + recordsWithin(size)
		rec := l2.Recovery()
		if rec.Records != wantRecords || delivered != wantRecords {
			t.Fatalf("truncation at %d: recovered %d records (%d delivered), want %d", size, rec.Records, delivered, wantRecords)
		}
		wantTorn := size - (segHeaderSize + int64(recordsWithin(size))*int64(frameHeader+len(payload)))
		if rec.TornBytes != wantTorn {
			t.Fatalf("truncation at %d: torn bytes %d, want %d", size, rec.TornBytes, wantTorn)
		}
		// The log must be fully usable after recovery.
		idx, err := l2.Append(record(999))
		if err != nil {
			t.Fatalf("truncation at %d: append after recovery: %v", size, err)
		}
		if idx != uint64(wantRecords)+1 {
			t.Fatalf("truncation at %d: post-recovery index %d, want %d", size, idx, wantRecords+1)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("truncation at %d: close: %v", size, err)
		}
		l3, _, idxs := reopen(t, dir, Options{SegmentBytes: 4 << 10})
		l3.Close()
		if n := len(idxs); n != wantRecords+1 {
			t.Fatalf("truncation at %d: replay sees %d records, want %d", size, n, wantRecords+1)
		}
	}
}

// TestTornTailBitFlip: corruption (not truncation) of the final frame is
// also repaired by dropping the damaged suffix.
func TestTornTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40 // inside the final record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Records != 9 || rec.TornBytes == 0 {
		t.Fatalf("bit-flip recovery: %+v", rec)
	}
}

// Damage in a sealed (non-final) segment is corruption, not a crash: it
// must fail loudly instead of being truncated away.
func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 600)
	for l.Stats().Segments < 2 {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 4 << 10}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt sealed segment: %v, want ErrCorrupt", err)
	}
	if err := ReplayDir(dir, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReplayDir over corrupt sealed segment: %v, want ErrCorrupt", err)
	}
}

func TestRetention(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4 << 10, Retain: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512)
	for i := 0; i < 60; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments > 2 {
		t.Fatalf("retention kept %d segments, want <= 2 (1 sealed + active)", st.Segments)
	}
	if st.FirstIndex <= 1 {
		t.Fatalf("retention did not advance FirstIndex: %+v", st)
	}
	// Replay only sees the retained suffix, still contiguous.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _, idxs := reopen(t, dir, Options{SegmentBytes: 4 << 10, Retain: 1})
	defer l.Close()
	if len(idxs) == 0 || idxs[0] != st.FirstIndex || idxs[len(idxs)-1] != st.LastIndex {
		t.Fatalf("retained replay range [%d,%d] vs stats %+v", idxs[0], idxs[len(idxs)-1], st)
	}
}

func TestReplayDirMatchesOpenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, want, _ := reopen(t, dir, Options{SegmentBytes: 4 << 10})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[uint64][]byte{}
	if err := ReplayDir(dir, func(idx uint64, p []byte) error {
		got[idx] = append([]byte(nil), p...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ReplayDir saw %d records, Open's recovery scan saw %d", len(got), len(want))
	}
	for idx, p := range want {
		if string(got[idx]) != string(p) {
			t.Fatalf("record %d differs between ReplayDir and Open's recovery scan", idx)
		}
	}
	if err := ReplayDir(t.TempDir(), func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("ReplayDir over an empty directory should error")
	}
}
