// Package chaos is the fault-injection test suite for the live
// ingest→retrain→publish→swap loop. The scenario tests (chaos_test.go)
// run a trainer (stream.Service) and a server (serve.Server watching the
// artifact file) side by side as pathrank-train's live mode and
// pathrank-serve -watch run, drive them with HTTP load, and use
// internal/fault plans to kill WAL writes, corrupt artifact bytes, and
// panic workers — asserting that the canary gate refuses bad artifacts
// without touching the trainer's chain, degraded mode loses nothing beyond
// its documented bound, and panic containment keeps ingest alive.
//
// The non-test code here is the corruption toolkit the scenarios (and
// the serve package's own canary tests) share. It deliberately imports
// only the artifact layer, never serve or stream, so any test package
// may use it without cycles.
package chaos

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"pathrank/internal/pathrank"
)

// paramWire mirrors internal/nn's serialized parameter record. Gob
// matches fields by name, so this package can rewrite model bytes
// without nn exporting its wire struct — exactly the stance of an
// attacker (or a flaky disk) that flips bits inside a structurally
// valid bundle.
type paramWire struct {
	Name   string
	Rows   int
	Cols   int
	W      []float64
	Frozen bool
}

// PoisonModelWeights returns a clone of m whose every weight is NaN. The
// clone is "corrupt but loadable": it round-trips Save/Load and the
// artifact's params digest (which covers exactly these bytes — they are
// valid bytes, encoding garbage), passes every shape check, and
// fails only where it matters — every score it produces is NaN. This is
// the artifact the canary gate exists to keep out of service.
func PoisonModelWeights(m *pathrank.Model) (*pathrank.Model, error) {
	clone, err := m.Clone()
	if err != nil {
		return nil, fmt.Errorf("chaos: clone model: %w", err)
	}
	var buf bytes.Buffer
	if err := clone.Save(&buf); err != nil {
		return nil, fmt.Errorf("chaos: save model: %w", err)
	}
	var wire []paramWire
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		return nil, fmt.Errorf("chaos: decode model wire format: %w", err)
	}
	for i := range wire {
		for j := range wire[i].W {
			wire[i].W[j] = math.NaN()
		}
	}
	var poisoned bytes.Buffer
	if err := gob.NewEncoder(&poisoned).Encode(wire); err != nil {
		return nil, fmt.Errorf("chaos: re-encode model: %w", err)
	}
	if err := clone.Load(&poisoned); err != nil {
		return nil, fmt.Errorf("chaos: poisoned model failed to load — the corruption is supposed to be loadable: %w", err)
	}
	return clone, nil
}

// PoisonArtifact returns a new artifact sharing everything with art
// except the model, which is NaN-poisoned via PoisonModelWeights.
// Persisted with pathrank.SaveArtifactFile it yields a bundle that
// loads cleanly everywhere and serves garbage.
func PoisonArtifact(art *pathrank.Artifact) (*pathrank.Artifact, error) {
	model, err := PoisonModelWeights(art.Model)
	if err != nil {
		return nil, err
	}
	lin := art.Lineage
	lin.Generation++
	return &pathrank.Artifact{
		Graph:      art.Graph,
		Model:      model,
		Candidates: art.Candidates,
		Lineage:    lin,
	}, nil
}
