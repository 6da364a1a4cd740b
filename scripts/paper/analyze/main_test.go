package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadReportRefusesFailedRuns: a report is accepted only when every
// request succeeded and the run achieved a positive rate.
func TestReadReportRefusesFailedRuns(t *testing.T) {
	const latency = `"latency_ms":{"mean":1.2,"p50":1,"p95":2,"p99":3,"p999":4}`
	for _, c := range []struct {
		name, body, wantErr string
	}{
		{"ok", `{"requests":100,"achieved_rps":49.5,` + latency + `}`, ""},
		{"no errors counted", `{"requests":100,"achieved_rps":49.5,"errors":{"unroutable":0},` + latency + `}`, ""},
		{"failed request", `{"requests":100,"achieved_rps":49.5,"errors":{"unroutable":2},` + latency + `}`, "2 request(s) failed with unroutable"},
		{"zero rate", `{"requests":100,"achieved_rps":0,` + latency + `}`, "achieved_rps is 0"},
		{"negative rate", `{"requests":100,"achieved_rps":-1,` + latency + `}`, "achieved_rps is -1"},
		{"no requests", `{"requests":0,"achieved_rps":49.5,` + latency + `}`, "zero completed requests"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run_rep0.json")
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readReport(path)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("refused a good report: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}
