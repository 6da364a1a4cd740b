package experiments

import (
	"runtime"
	"testing"
)

// TestParallelRowsBitwiseDeterministic trains the Table-1 grid on the quick
// world at GOMAXPROCS 1 (serial) and 4 (four row workers) and asserts
// identical rows: the parallel experiment runner must not change any
// printed metric.
func TestParallelRowsBitwiseDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four models twice")
	}
	build := func(workers int) []Row {
		t.Helper()
		w, err := NewWorld(QuickWorldConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		rows, err := Table1(w, []int{8})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := build(1)
	parallel := build(4)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Label != parallel[i].Label {
			t.Fatalf("row %d label %q != %q", i, serial[i].Label, parallel[i].Label)
		}
		if serial[i].Report != parallel[i].Report {
			t.Fatalf("row %d (%s) metrics differ:\n  serial:   %+v\n  parallel: %+v",
				i, serial[i].Label, serial[i].Report, parallel[i].Report)
		}
	}
}

// TestRunRowsPropagatesError checks the bounded runner surfaces worker
// errors after draining.
func TestRunRowsPropagatesError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	_, err := runRows(5, func(i int) (Row, error) {
		if i == 3 {
			return Row{}, errBoom
		}
		return Row{Label: "ok"}, nil
	})
	if err != errBoom {
		t.Fatalf("runRows error = %v, want errBoom", err)
	}
}

var errBoom = &rowError{"boom"}

type rowError struct{ s string }

func (e *rowError) Error() string { return e.s }
