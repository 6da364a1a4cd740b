package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"testing"
)

// goldenFile holds every row of the quick world's evaluation.
const goldenFile = "testdata/quick.csv"

// TestQuickGolden re-derives all of Experiments on the quick world at
// QuickSchedule and compares the rows byte for byte with goldenFile. The
// rows are seeded, so they are exact: a change that moves any metric of
// any row fails here, and the message holds the re-derived file, which is
// what goldenFile must become if the change is meant.
func TestQuickGolden(t *testing.T) {
	w, err := NewWorld(QuickWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var buf bytes.Buffer
	out := csv.NewWriter(&buf)
	out.Write([]string{"experiment", "label", "mae", "mare", "tau", "rho", "queries", "pairs"})
	for _, e := range Experiments {
		rows, err := e.Run(w, QuickSchedule())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, r := range rows {
			out.Write([]string{e.Name, r.Label, f(r.Report.MAE), f(r.Report.MARE), f(r.Report.Tau), f(r.Report.Rho),
				strconv.Itoa(r.Report.NQueries), strconv.Itoa(r.Report.NPairs)})
		}
	}
	out.Flush()
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		fmt.Printf("re-derived %s:\n%s", goldenFile, buf.Bytes())
		t.Fatalf("the quick evaluation's rows differ from %s (the re-derived file is printed above)", goldenFile)
	}
}
