package pathrank

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pathrank/internal/roadnet"
)

// freshProcessEnv marks a run of this test binary started by
// inFreshProcess, and names what the child does.
const freshProcessEnv = "PATHRANK_TEST_FRESH_PROCESS"

// inFreshProcess runs the calling test alone in a new process of this test
// binary, with freshProcessEnv set to mode, and returns the line the child
// printed after "fresh: ". gob's type registry there holds only what
// package init put in it; in this process, earlier tests have added to it.
func inFreshProcess(t *testing.T, mode string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), freshProcessEnv+"="+mode)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fresh process (%s): %v\n%s", mode, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "fresh: "); ok {
			return v
		}
	}
	t.Fatalf("fresh process (%s) printed no result:\n%s", mode, out)
	return ""
}

// freshFingerprint is the fingerprint of gobHistoryModel, as every binary
// computed it before anything else was gob-encoded in its process.
const freshFingerprint = "78a0453c36227e8119cdf53df3bffb87ca249dcb1379cd84b6907c99a2af4e70"

// gobHistoryModel is an untrained PR-A2 model (M 4, hidden 4, seed 1) on a
// 6x6 world, and that world's graph.
func gobHistoryModel(t *testing.T) (*Model, *roadnet.Graph) {
	t.Helper()
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = 6, 6, 1
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g.NumVertices(), Config{EmbeddingDim: 4, Hidden: 4, Variant: PRA2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

// TestFingerprintIgnoresGobHistory: gob numbers types process-wide in the
// order they are first encoded, and a fingerprint once hashed gob's type
// preamble, so gob-encoding another type first (a roadnet.Graph.Save)
// changed every fingerprint the process computed after it. Fingerprints
// are compared across binaries (WAL replay, lineage, a bundle's shard map),
// so the value must not depend on what else the process serialized.
func TestFingerprintIgnoresGobHistory(t *testing.T) {
	if mode := os.Getenv(freshProcessEnv); mode != "" {
		m, g := gobHistoryModel(t)
		if mode == "after-save" {
			if err := g.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		fp, err := m.FingerprintHex()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Println("fresh: " + fp)
		return
	}
	if fp := inFreshProcess(t, "first"); fp != freshFingerprint {
		t.Fatalf("fresh process fingerprint %s, want %s", fp, freshFingerprint)
	}
	if fp := inFreshProcess(t, "after-save"); fp != freshFingerprint {
		t.Fatalf("fingerprint after a graph save %s, want %s as in a fresh process", fp, freshFingerprint)
	}
	m, _ := gobHistoryModel(t)
	if fp, err := m.FingerprintHex(); err != nil || fp != freshFingerprint {
		t.Fatalf("fingerprint in the test process %s (%v), want %s", fp, err, freshFingerprint)
	}
}
