package chaos

import (
	"runtime"
	"testing"

	"repro/internal/apps"
)

// matrixAllocBound is the committed ceiling on heap allocations per chaos
// run of the matrix slice below, about 10% above the measured figure
// (~660 on go1.24, linux/amd64). Allocation counts do not depend on the
// machine's speed, so the bound is a deterministic gate. It may only
// tighten; record every change in CHANGES.md.
const matrixAllocBound = 725

// TestMatrixAllocBound gates allocations on the hot path: a warm,
// single-worker RunMatrix over 7 apps × 7 kinds × 4 seeds must stay within
// matrixAllocBound mallocs per run.
func TestMatrixAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, inflating allocations")
	}
	cfg := MatrixConfig{Apps: append(apps.Registry(), apps.Zoo()...), Seeds: []int64{1, 2, 3, 4}, Workers: 1}
	RunMatrix(cfg) // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := RunMatrix(cfg)
	runtime.ReadMemStats(&after)
	if len(rep.Cells) != 7*len(MatrixKinds)*4 {
		t.Fatalf("matrix ran %d cells, want %d", len(rep.Cells), 7*len(MatrixKinds)*4)
	}
	runs := 2 * len(rep.Cells) // each cell runs twice: the replay-determinism check
	perRun := float64(after.Mallocs-before.Mallocs) / float64(runs)
	t.Logf("%.1f mallocs/run over %d runs (bound %d)", perRun, runs, matrixAllocBound)
	if perRun > matrixAllocBound {
		t.Errorf("%.1f mallocs/run exceeds the committed bound %d", perRun, matrixAllocBound)
	}
}
