package fpgrowth

import (
	"runtime"
	"testing"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/metrics"
	"fpm/internal/mine"
)

// bytesPerRun returns the heap bytes f allocates per call, averaged over
// runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestFPGrowthAllocsAlphabet pins the conditional-alphabet bound: mining
// the same transactions over a 10× alphabet (the extra ids never occur)
// may cost only per-Mine arrays over the alphabet, a few dozen bytes per
// id, not a header table over it per conditional FP-tree.
func TestFPGrowthAllocsAlphabet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const minsup = 10
	db := gen.Quest(gen.QuestConfig{Transactions: 1000, AvgLen: 12, AvgPatternLen: 4, Items: 100, Patterns: 40, Seed: 5})
	wide := db.Clone()
	wide.NumItems *= 10
	extra := float64(wide.NumItems - db.NumItems)

	rec := metrics.NewRecorder()
	if err := New(Options{Patterns: mine.Applicable(mine.FPGrowth), Metrics: rec}).Mine(db, minsup, &mine.CountCollector{}); err != nil {
		t.Fatal(err)
	}
	// Enough conditional trees that one alphabet-sized header table per
	// tree would dwarf the slack below.
	if trees := rec.Snapshot().Nodes; trees < 500 {
		t.Fatalf("workload builds only %d FP-trees", trees)
	}

	m := New(Options{Patterns: mine.Applicable(mine.FPGrowth)})
	perRun := func(db *dataset.DB) float64 {
		return bytesPerRun(3, func() {
			if err := m.Mine(db, minsup, &mine.CountCollector{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	narrowB, wideB := perRun(db), perRun(wide)
	t.Logf("bytes/op: %.0f at %d items, %.0f at %d items", narrowB, db.NumItems, wideB, wide.NumItems)
	if wideB > narrowB+64*extra+4096 {
		t.Fatalf("bytes/op scale with the alphabet: %.0f for %d items vs %.0f for %d items",
			narrowB, db.NumItems, wideB, wide.NumItems)
	}
}
