package experiments

import (
	"math"
	"strings"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/pathrank"
)

func quickWorld(t testing.TB) *World {
	t.Helper()
	w, err := NewWorld(QuickWorldConfig())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestNewWorldDeterministic(t *testing.T) {
	w1 := quickWorld(t)
	w2 := quickWorld(t)
	if w1.G.NumVertices() != w2.G.NumVertices() || len(w1.Trips) != len(w2.Trips) {
		t.Fatal("same config produced different worlds")
	}
}

func TestEmbeddingsCached(t *testing.T) {
	w := quickWorld(t)
	e1 := w.Embeddings(8)
	e2 := w.Embeddings(8)
	if e1 != e2 {
		t.Fatal("embeddings not cached")
	}
	e3 := w.Embeddings(16)
	if e3 == e1 || e3.Dim != 16 {
		t.Fatal("different dims should produce different embeddings")
	}
}

func TestQueriesCached(t *testing.T) {
	w := quickWorld(t)
	cfg := dataset.Config{Strategy: dataset.TkDI, K: 3, IncludeTruth: true}
	q1, err := w.Queries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := w.Queries(cfg)
	if &q1[0] != &q2[0] {
		t.Fatal("queries not cached")
	}
}

func TestRunModelProducesFiniteReport(t *testing.T) {
	w := quickWorld(t)
	rep, err := w.RunModel(ModelSpec{
		Data: dataset.Config{Strategy: dataset.TkDI, K: 3, IncludeTruth: true},
		M:    8, Variant: pathrank.PRA2, Body: pathrank.GRUBody,
	})
	if err != nil {
		t.Fatalf("RunModel: %v", err)
	}
	if math.IsNaN(rep.MAE) || math.IsNaN(rep.Tau) {
		t.Fatalf("non-finite report: %v", rep)
	}
	if rep.NQueries == 0 {
		t.Fatal("no test queries evaluated")
	}
}

func TestTable1Shape(t *testing.T) {
	w := quickWorld(t)
	rows, err := Table1(w, []int{8, 12})
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table1 has %d rows, want 8 (2 protocols x 2 strategies x 2 Ms)", len(rows))
	}
	for _, r := range rows {
		if !strings.Contains(r.Label, "PR-A1") {
			t.Fatalf("Table1 row %q missing PR-A1", r.Label)
		}
	}
	if !strings.Contains(rows[0].Label, "TkDI") || !strings.Contains(rows[2].Label, "D-TkDI") {
		t.Fatalf("unexpected row order: %q, %q", rows[0].Label, rows[2].Label)
	}
	for i, r := range rows {
		if excluded := strings.HasSuffix(r.Label, " truth-excluded"); excluded != (i >= 4) {
			t.Fatalf("row %d %q: the truth-excluded group is the last four rows", i, r.Label)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	w := quickWorld(t)
	rows, err := Table2(w, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table2 has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if !strings.Contains(r.Label, "PR-A2") {
			t.Fatalf("Table2 row %q missing PR-A2", r.Label)
		}
	}
}

// TestTrainingProtocol: every query the headline rows train on holds its
// driven path at label 1, as pathrank-train's training queries do, and the
// truth-excluded group's query for the same trip holds the same candidates
// without the appended driven path: it holds that path only where the
// generator found it.
func TestTrainingProtocol(t *testing.T) {
	w := quickWorld(t)
	holds := func(q dataset.Query) bool {
		for _, c := range q.Candidates {
			if c.Path.Equal(q.Truth) && c.Label == 1 {
				return true
			}
		}
		return false
	}
	specs, labels := strategySpecs(QuickSchedule().Ms, pathrank.PRA2)
	found := 0
	for i, spec := range specs {
		if !spec.Data.IncludeTruth {
			continue
		}
		headline, err := w.Queries(spec.Data)
		if err != nil {
			t.Fatal(err)
		}
		excl := spec.Data
		excl.IncludeTruth = false
		excluded, err := w.Queries(excl)
		if err != nil {
			t.Fatal(err)
		}
		if len(headline) != len(excluded) {
			t.Fatalf("%s: %d queries, %d truth-excluded", labels[i], len(headline), len(excluded))
		}
		for j, q := range headline {
			if !holds(q) {
				t.Fatalf("%s: query %d->%d lacks its driven path", labels[i], q.Source, q.Destination)
			}
			want := q.Candidates
			if holds(excluded[j]) {
				found++
			} else {
				want = want[:len(want)-1] // the appended driven path
			}
			if len(excluded[j].Candidates) != len(want) {
				t.Fatalf("%s: query %d->%d has %d candidates truth-excluded, want %d",
					labels[i], q.Source, q.Destination, len(excluded[j].Candidates), len(want))
			}
			for k, c := range excluded[j].Candidates {
				if !c.Path.Equal(want[k].Path) {
					t.Fatalf("%s: query %d->%d candidate %d differs truth-excluded", labels[i], q.Source, q.Destination, k)
				}
			}
		}
	}
	t.Logf("%d truth-excluded training queries hold their driven path because the generator found it", found)
}

func TestSweepsShapes(t *testing.T) {
	w := quickWorld(t)
	if rows, err := SweepK(w, []int{3, 4}, 8); err != nil || len(rows) != 2 {
		t.Fatalf("SweepK rows=%d err=%v", len(rows), err)
	}
	if rows, err := SweepDiversity(w, []float64{0.7, 0.9}, 8); err != nil || len(rows) != 2 {
		t.Fatalf("SweepDiversity rows=%d err=%v", len(rows), err)
	}
	if rows, err := SweepM(w, []int{8, 12}); err != nil || len(rows) != 2 {
		t.Fatalf("SweepM rows=%d err=%v", len(rows), err)
	}
	if rows, err := SweepTrainSize(w, []float64{0.5, 1.0}, 8); err != nil || len(rows) != 2 {
		t.Fatalf("SweepTrainSize rows=%d err=%v", len(rows), err)
	}
}

func TestBaselinesIncludePathRankAndComparators(t *testing.T) {
	w := quickWorld(t)
	rows, err := Baselines(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Baselines has %d rows, want 4", len(rows))
	}
	labels := make([]string, len(rows))
	for i, r := range rows {
		labels[i] = r.Label
	}
	joined := strings.Join(labels, ",")
	for _, want := range []string{"rank-by-length", "rank-by-time", "linear-features", "PathRank"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing baseline %q in %v", want, labels)
		}
	}
}

func TestAblationsShapes(t *testing.T) {
	w := quickWorld(t)
	rows, err := AblationBody(w, 8)
	if err != nil || len(rows) != 5 {
		t.Fatalf("AblationBody rows=%d err=%v", len(rows), err)
	}
	rows, err = AblationMultiTask(w, []float64{0, 0.5}, 8)
	if err != nil || len(rows) != 2 {
		t.Fatalf("AblationMultiTask rows=%d err=%v", len(rows), err)
	}
}

func TestRowString(t *testing.T) {
	r := Row{Label: "test"}
	if !strings.Contains(r.String(), "test") || !strings.Contains(r.String(), "MAE") {
		t.Fatalf("row string %q", r.String())
	}
}
