package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
)

// freshProcessEnv marks a run of this test binary started by
// TestGobFilesIgnoreGobHistory, and names what the child encodes first.
const freshProcessEnv = "PATHRANK_TEST_FRESH_PROCESS"

// freshShardMap is the SHA-256 of gobHistoryShardMap's file as a process
// that had gob-encoded nothing else writes it: the bytes every bundle's
// shardmap.bin is made of. The map has no endpoint tables, so nothing
// follows its gob message.
const freshShardMap = "015bacfcf16c05c27d16d7093a575d8fa5a45d2881b44417361a94254fc9ace3"

// gobHistoryShardMap is a small shard map with every field set.
func gobHistoryShardMap() *partition.ShardMap {
	return &partition.ShardMap{
		Parts: 2, NumVertices: 3, NumEdges: 2,
		Owner:       []int32{0, 0, 1},
		Boundary:    [][]roadnet.VertexID{{1}, {2}},
		CutEdges:    []roadnet.Edge{{ID: 1, From: 1, To: 2, Length: 120.5, Time: 9.25, Category: roadnet.Residential}},
		DLen:        []float64{0, 120.5, 130, 0},
		DTime:       []float64{0, 9.25, 10, 0},
		TotalLen:    250.5,
		TotalTime:   19.25,
		Candidates:  dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8},
		ModelConfig: pathrank.Config{EmbeddingDim: 4, Hidden: 4, Variant: pathrank.PRA2, Seed: 1},
		ModelParams: []byte{1, 2, 3},
		Fingerprint: "ab12",
	}
}

// gobFileHashes encodes gobHistoryShardMap and a retrain marker and returns
// the SHA-256 of each.
func gobFileHashes(t *testing.T) (shardMap, marker string) {
	t.Helper()
	var sm bytes.Buffer
	if err := partition.SaveShardMap(&sm, gobHistoryShardMap()); err != nil {
		t.Fatal(err)
	}
	mk, err := encodeRetrainMarker(retrainMarker{Generation: 2, Parent: "aa", Result: "bb", WindowSeqs: []int64{4, 9}, LR: 0.004, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sha256.Sum256(sm.Bytes()), sha256.Sum256(mk)
	return hex.EncodeToString(a[:]), hex.EncodeToString(b[:])
}

// TestGobFilesIgnoreGobHistory: gob numbers types process-wide in the order
// they are first encoded and writes the numbers into every stream, so a
// shard map or a WAL retrain marker encoded after another new type came out
// different. Both must be the same bytes in a fresh process, after an
// unrelated encode, and in this process after every earlier test, and the
// shard map the bytes bundles have always carried.
func TestGobFilesIgnoreGobHistory(t *testing.T) {
	if mode := os.Getenv(freshProcessEnv); mode != "" {
		if mode == "after-encode" {
			if err := gob.NewEncoder(io.Discard).Encode(struct{ Unrelated []complex128 }{}); err != nil {
				t.Fatal(err)
			}
		}
		sm, mk := gobFileHashes(t)
		fmt.Println("fresh: " + sm + " " + mk)
		return
	}
	fresh := func(mode string) string {
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
	first := fresh("first")
	if sm, _, _ := strings.Cut(first, " "); sm != freshShardMap {
		t.Fatalf("fresh process shard map hashes to %s, want %s", sm, freshShardMap)
	}
	if after := fresh("after-encode"); after != first {
		t.Fatalf("after an unrelated encode: shard map and marker hash to %s, in a fresh process %s", after, first)
	}
	if sm, mk := gobFileHashes(t); sm+" "+mk != first {
		t.Fatalf("in the test process: shard map and marker hash to %s %s, in a fresh process %s", sm, mk, first)
	}
}
