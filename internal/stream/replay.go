// Deterministic WAL replay: reconstructing model generations from the
// trajectory log alone. Replay reads every observation and retrain marker
// out of a WAL directory and re-executes each marked retrain against the
// base artifact through the live loop's own retrainStep — same
// observations (pinned by the marker's seq list, so the live window's
// eviction policy is irrelevant), same effective fine-tune configuration,
// same seed. Because the live
// pipeline is deterministic, the reconstructed model of every generation
// must match the marker's recorded fingerprint bit-for-bit; Replay
// verifies that, along with the Merkle data and chain roots, and reports
// any divergence instead of silently producing a different model.
package stream

import (
	"errors"
	"fmt"

	"pathrank/internal/merkle"
	"pathrank/internal/pathrank"
	"pathrank/internal/wal"
)

// ReplayResult summarizes a deterministic replay.
type ReplayResult struct {
	// Artifact is the last generation reconstructed (the base artifact if
	// the log held no replayable markers).
	Artifact *pathrank.Artifact
	// Generations is how many retrain steps were re-executed.
	Generations int
	// Observations is how many observation records the log held.
	Observations int
	// SkippedMarkers counts markers that could not be chained onto the
	// replay state (generations below the base artifact's, or duplicates
	// from a run that restarted against a stale artifact).
	SkippedMarkers int
	// Verified is true when every reconstructed generation reproduced its
	// marker's model fingerprint and Merkle roots exactly.
	Verified bool
	// Mismatches describes each divergence (empty when Verified).
	Mismatches []string
}

// Replay reconstructs model generations from the WAL in walDir, starting
// from base. Markers for generations at or below base's are skipped (they
// were trained before base existed); replay stops after targetGen when
// targetGen > 0, otherwise it runs to the end of the log. base is not
// mutated. An error means replay could not proceed at all (unreadable or
// corrupt log, missing observations, wrong base artifact); a fingerprint
// divergence is reported through Verified/Mismatches instead, with the
// reconstructed chain still returned.
func Replay(walDir string, base *pathrank.Artifact, targetGen int, logf func(format string, args ...any)) (*ReplayResult, error) {
	if base == nil || base.Graph == nil || base.Model == nil {
		return nil, fmt.Errorf("stream: replay needs a base artifact with a graph and a model")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// One pass over the log: observations keyed by seq, markers in order.
	obs := make(map[int64]observation)
	var markers []retrainMarker
	err := wal.ReplayDir(walDir, func(idx uint64, payload []byte) error {
		rec, err := decodeWALRecord(idx, payload, base.Graph)
		switch {
		case errors.As(err, new(foreignObservationError)):
			return fmt.Errorf("%w (wrong base artifact?)", err)
		case err != nil:
			return err
		case rec.isMarker:
			markers = append(markers, rec.marker)
		default:
			obs[rec.obs.seq] = rec.obs
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	logf("replay: %d observations, %d retrain markers in %s", len(obs), len(markers), walDir)

	res := &ReplayResult{Artifact: base, Observations: len(obs), Verified: true}
	chain := merkle.Hash{}
	if base.Lineage.ChainRoot != "" {
		if chain, err = merkle.ParseHash(base.Lineage.ChainRoot); err != nil {
			return nil, fmt.Errorf("stream: base artifact lineage ChainRoot: %w", err)
		}
	}
	cur := base
	for _, m := range markers {
		if targetGen > 0 && m.Generation > targetGen {
			break
		}
		if m.Generation != cur.Lineage.Generation+1 {
			// Below or equal to the current generation: trained before the
			// base artifact (already embodied in its weights) or a duplicate
			// from a restart against a stale artifact. Ahead by more than
			// one: a marker in between is missing and the chain cannot
			// continue.
			if m.Generation > cur.Lineage.Generation+1 {
				return res, fmt.Errorf("stream: replay reached generation %d but the next marker is for generation %d (segment pruned by retention?)",
					cur.Lineage.Generation, m.Generation)
			}
			res.SkippedMarkers++
			logf("replay: skipping marker for generation %d (already at %d)", m.Generation, cur.Lineage.Generation)
			continue
		}
		next, err := replayStep(cur, m, obs, chain, res)
		if err != nil {
			return res, err
		}
		chainHex := next.Lineage.ChainRoot
		if chainHex != "" {
			chain, _ = merkle.ParseHash(chainHex)
		}
		cur = next
		res.Artifact = cur
		res.Generations++
		logf("replay: generation %d reconstructed (fingerprint %.12s…)", m.Generation, m.Result)
	}
	return res, nil
}

// replayStep re-executes one marked retrain through the live loop's
// retrainStep: cur + marker → the next generation's artifact, verified
// against the marker. Divergences that indicate nondeterminism (wrong
// result fingerprint, wrong roots) are recorded in res; conditions that
// make replay impossible (missing observation, wrong parent) are errors.
func replayStep(cur *pathrank.Artifact, m retrainMarker, obs map[int64]observation, chain merkle.Hash, res *ReplayResult) (*pathrank.Artifact, error) {
	parent, err := cur.Model.FingerprintHex()
	if err != nil {
		return nil, fmt.Errorf("stream: fingerprint parent: %w", err)
	}
	if parent != m.Parent {
		return nil, fmt.Errorf("stream: marker for generation %d was trained from parent %.12s… but replay is at %.12s… (wrong base artifact?)",
			m.Generation, m.Parent, parent)
	}

	// Pin the training set from the marker, not from any window
	// reconstruction: the seq list is the window the live retrain saw.
	window := make([]observation, len(m.WindowSeqs))
	for i, seq := range m.WindowSeqs {
		o, ok := obs[seq]
		if !ok {
			return nil, fmt.Errorf("stream: generation %d trained on observation %d which is not in the log (segment pruned by retention?)", m.Generation, seq)
		}
		window[i] = o
	}
	out, err := retrainStep(cur, window, chain, pathrank.TrainConfig{
		Epochs:   m.Epochs,
		LR:       m.LR,
		ClipNorm: m.ClipNorm,
		LRDecay:  m.LRDecay,
		Seed:     m.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("stream: replay generation %d: %w", m.Generation, err)
	}
	for _, f := range []struct{ what, got, want string }{
		{"data root", out.marker.DataRoot, m.DataRoot},
		{"chain root", out.marker.ChainRoot, m.ChainRoot},
		{"model fingerprint", out.marker.Result, m.Result},
	} {
		if f.got != f.want {
			res.Verified = false
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("generation %d: %s %s, marker recorded %s", m.Generation, f.what, f.got, f.want))
		}
	}
	return out.art, nil
}
