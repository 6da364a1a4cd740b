package pathrank

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pathrank/internal/fault"
)

// Every file this repository persists for serving — artifacts and the
// router's shard map — opens with the same 52-byte frame header (all
// integers big-endian):
//
//	offset  size  field
//	     0     8  magic
//	     8     4  format version (uint32)
//	    12    32  SHA-256 of the payload
//	    44     8  payload length in bytes (uint64)
//	    52     n  payload
//
// The checksum covers every payload byte, so a torn write or bit flip is
// detected before the payload is decoded. A section after the payload is
// covered by a digest inside it: the loader hashes that section and
// compares, so the one checksum extends to the whole file while a large
// section is hashed once, by the loader that reads it (the artifact's
// params stream and raw section, the shard map's params). EncodeFrame and
// DecodeFrame are the only code that builds or parses the header.
const FrameHeaderLen = 52

// EncodeFrame returns the frame header for payload.
func EncodeFrame(magic [8]byte, version uint32, payload []byte) [FrameHeaderLen]byte {
	var h [FrameHeaderLen]byte
	copy(h[0:8], magic[:])
	binary.BigEndian.PutUint32(h[8:12], version)
	sum := sha256.Sum256(payload)
	copy(h[12:44], sum[:])
	binary.BigEndian.PutUint64(h[44:52], uint64(len(payload)))
	return h
}

// DecodeFrame checks the header at the start of data — magic, then
// version, then that the declared payload lies inside data and matches its
// checksum — and returns the payload, aliasing data. Bytes after the
// payload are the caller's. Failures wrap ErrArtifactFormat (not this
// kind of file), ErrArtifactVersion, or ErrArtifactCorrupt. Because the
// length is checked against bytes already in hand, a corrupt length field
// cannot trigger an allocation.
func DecodeFrame(data []byte, magic [8]byte, version uint32) ([]byte, error) {
	if len(data) < FrameHeaderLen {
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrArtifactFormat, len(data))
	}
	if !bytes.Equal(data[0:8], magic[:]) {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrArtifactFormat, data[0:8], magic[:])
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != version {
		return nil, fmt.Errorf("%w: file has version %d, this build reads only version %d", ErrArtifactVersion, v, version)
	}
	n := binary.BigEndian.Uint64(data[44:52])
	if n > uint64(len(data)-FrameHeaderLen) {
		return nil, fmt.Errorf("%w: payload length %d exceeds the %d bytes present", ErrArtifactCorrupt, n, len(data)-FrameHeaderLen)
	}
	payload := data[FrameHeaderLen : FrameHeaderLen+int(n)]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], data[12:44]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrArtifactCorrupt)
	}
	return payload, nil
}

// WriteFileAtomic is the only function that creates artifact or shard-map
// files: StageFile, then CommitFile. write streams the content into a
// temporary file in path's directory, which is fsynced and renamed into
// place, and the directory is fsynced after. Two properties follow:
//
//   - Readers never see a partial file, and the inode at path is replaced,
//     never truncated: a process that has the old file mapped MAP_SHARED
//     (LoadArtifactFileMapped) keeps reading the old bytes instead of
//     taking SIGBUS on its next page touch.
//   - The publish is durable: a power loss cannot leave path naming a file
//     whose bytes never reached stable storage (rename-before-data is the
//     classic hole — the journal commits the new name while the data pages
//     are still dirty).
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := StageFile(path, write)
	if err != nil {
		return err
	}
	return CommitFile(tmp, path)
}

// StageFile is WriteFileAtomic's first half: it streams write's content
// into a new temporary file beside path, fsyncs and closes it, and returns
// its name. Nothing at path changes; a caller that must record the publish
// elsewhere first (the trainer's WAL marker) does so between StageFile and
// CommitFile, and removes the staged file if it gives up.
func StageFile(path string, write func(io.Writer) error) (tmp string, err error) {
	// Chaos hook: an injected save failure rejects the persist before the
	// temp file exists, like a disk that refuses the create.
	if err := fault.Check(fault.SiteArtifactSave); err != nil {
		return "", fmt.Errorf("pathrank: save %s: %w", path, err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return "", fmt.Errorf("pathrank: %w", err)
	}
	tmp = f.Name()
	defer func() {
		if err != nil {
			f.Close() // double close on the late paths is harmless
			os.Remove(tmp)
		}
	}()
	// CreateTemp makes the file 0600; a trainer's artifacts are read by
	// servers running as other users, as os.Create's files were.
	if err = f.Chmod(0o644); err != nil {
		return "", fmt.Errorf("pathrank: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err = write(bw); err != nil {
		return "", err
	}
	if err = bw.Flush(); err != nil {
		return "", fmt.Errorf("pathrank: flush %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return "", fmt.Errorf("pathrank: fsync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return "", fmt.Errorf("pathrank: close %s: %w", tmp, err)
	}
	return tmp, nil
}

// CommitFile is WriteFileAtomic's second half: it renames the staged file
// tmp into path and fsyncs the directory. A failed rename removes tmp.
func CommitFile(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pathrank: %w", err)
	}
	dir := filepath.Dir(path)
	if d, derr := os.Open(dir); derr == nil {
		err := d.Sync()
		d.Close()
		if err != nil {
			return fmt.Errorf("pathrank: fsync %s: %w", dir, err)
		}
	}
	return nil
}
