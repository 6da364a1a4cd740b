package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// buildSegment assembles a valid segment image with the given payloads.
func buildSegment(first uint64, payloads ...[]byte) []byte {
	var buf bytes.Buffer
	var header [segHeaderSize]byte
	copy(header[0:8], segMagic[:])
	binary.BigEndian.PutUint32(header[8:12], walVersion)
	binary.BigEndian.PutUint64(header[12:20], first)
	buf.Write(header[:])
	for _, p := range payloads {
		var fh [frameHeader]byte
		binary.BigEndian.PutUint32(fh[0:4], uint32(len(p)))
		binary.BigEndian.PutUint32(fh[4:8], crc32.Checksum(p, castagnoli))
		buf.Write(fh[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

// FuzzWALSegment drives the frame decoder (the code path under both crash
// recovery and replay) over arbitrary segment images: it must never
// panic, never report more intact bytes than the file holds, and must
// keep the frame-walk invariants (records consistent with the intact
// prefix, every delivered payload checksum-valid). On two copies of the
// image as a one-segment log, Open's recovery scan and ReplayDir must
// deliver the same records, or both refuse the segment.
func FuzzWALSegment(f *testing.F) {
	valid := buildSegment(1, []byte("alpha"), []byte("bravo-longer"), []byte("c"))
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // torn tail
	f.Add(valid[:segHeaderSize])
	f.Add(valid[:7]) // inside the magic
	f.Add([]byte{})
	f.Add(buildSegment(900))
	// Frame claiming more bytes than the file has.
	huge := append(bytes.Clone(valid), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)
	f.Add(huge)
	for _, off := range []int{0, 9, 14, 21, 25, len(valid) - 2} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x10
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var idxs []uint64
		first, intact, records, damage, err := scanSegmentCall(bytes.NewReader(data), "fuzz", func(idx uint64, payload []byte) error {
			if len(payload) == 0 || len(payload) > maxRecord {
				t.Fatalf("decoder delivered an invalid payload of %d bytes", len(payload))
			}
			idxs = append(idxs, idx)
			return nil
		})
		opened, openErr := openedRecords(t, data)
		replayed, replayErr := replayedRecords(t, data)
		if (openErr == nil) != (replayErr == nil) {
			t.Fatalf("Open error %v but ReplayDir error %v on the same bytes", openErr, replayErr)
		}
		if openErr == nil && !equalRecords(opened, replayed) {
			t.Fatalf("Open delivered %d records, ReplayDir %d, or their payloads differ", len(opened), len(replayed))
		}
		if err != nil {
			if !errors.Is(openErr, ErrCorrupt) {
				t.Fatalf("Open of a segment with an invalid header = %v, want ErrCorrupt", openErr)
			}
			if len(idxs) != 0 {
				t.Fatal("decoder delivered records from a segment with an invalid header")
			}
			return
		}
		if records != len(idxs) {
			t.Fatalf("records=%d but callback saw %d", records, len(idxs))
		}
		for i, idx := range idxs {
			if idx != first+uint64(i) {
				t.Fatalf("record index %d out of sequence (want %d)", idx, first+uint64(i))
			}
		}
		if intact < segHeaderSize || intact > int64(len(data)) {
			t.Fatalf("intact offset %d out of range [%d,%d]", intact, segHeaderSize, len(data))
		}
		if damage < 0 || intact+damage != int64(len(data)) {
			t.Fatalf("intact %d + damage %d != size %d", intact, damage, len(data))
		}
		if openErr != nil || len(opened) != records {
			t.Fatalf("Open delivered %d records (err %v), the frame walk %d", len(opened), openErr, records)
		}
	})
}

// walRecord is one delivered record, its payload copied.
type walRecord struct {
	idx     uint64
	payload []byte
}

// segmentDir writes data as the only segment of a fresh log directory.
func segmentDir(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// collector returns a record callback appending copies to *out.
func collector(out *[]walRecord) func(uint64, []byte) error {
	return func(idx uint64, p []byte) error {
		*out = append(*out, walRecord{idx, bytes.Clone(p)})
		return nil
	}
}

// openedRecords opens data as a one-segment log and returns what the
// recovery scan delivered.
func openedRecords(t *testing.T, data []byte) ([]walRecord, error) {
	var recs []walRecord
	l, err := Open(segmentDir(t, data), Options{}, collector(&recs))
	if err != nil {
		return nil, err
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs, nil
}

// replayedRecords replays data as a one-segment log through ReplayDir.
func replayedRecords(t *testing.T, data []byte) ([]walRecord, error) {
	var recs []walRecord
	err := ReplayDir(segmentDir(t, data), collector(&recs))
	return recs, err
}

func equalRecords(a, b []walRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].idx != b[i].idx || !bytes.Equal(a[i].payload, b[i].payload) {
			return false
		}
	}
	return true
}
