package eclat

import (
	"testing"

	"fpm/internal/gen"
	"fpm/internal/metrics"
	"fpm/internal/mine"
)

// TestEclatAllocsBySurvivors pins the scratch-vector property: a candidate
// that fails minSupport allocates nothing, so a mine's allocations are
// bounded by the itemsets it emits (each survivor's vector, its restored
// itemset, class slices) plus a constant for the root matrix — not by the
// support countings, most of which prune.
func TestEclatAllocsBySurvivors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A sparse ap-like corpus: most item pairs fall below minsup.
	const minsup = 8
	db := gen.Corpus(gen.CorpusConfig{Docs: 1000, Vocab: 1000, AvgLen: 10, ZipfS: 1.1, Shuffle: true, Seed: 5})
	for _, m := range allVariants() {
		rec := metrics.NewRecorder()
		m.opts.Metrics = rec
		allocs := testing.AllocsPerRun(3, func() {
			if err := m.Mine(db, minsup, &mine.CountCollector{}); err != nil {
				t.Fatal(err)
			}
		})
		m.opts.Metrics = nil
		runs := rec.Snapshot()
		t.Logf("%s: %.0f allocs/op, %d itemsets, %d countings over 4 runs", m.Name(), allocs, runs.Emitted, runs.Supports)
		// AllocsPerRun makes one warm-up call plus the measured runs.
		emitted, supports := float64(runs.Emitted)/4, float64(runs.Supports)/4
		if supports < 4*emitted {
			t.Fatalf("%s: workload prunes too little: %.0f countings for %.0f itemsets", m.Name(), supports, emitted)
		}
		if bound := 4*emitted + float64(4*db.NumItems) + 64; allocs > bound {
			t.Fatalf("%s: %.0f allocations per mine for %.0f itemsets and %.0f support countings; want at most %.0f",
				m.Name(), allocs, emitted, supports, bound)
		}
	}
}
