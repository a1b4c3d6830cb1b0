package fpm

// End-to-end integration tests: generator → FIMI file → reader → every
// miner (all kernels × all applicable pattern sets, plus closed/maximal
// views and the alternative representations) on the same pipeline, with
// all outputs cross-checked.

import (
	"path/filepath"
	"testing"

	"fpm/internal/memsim"
	"fpm/internal/simkern"
)

func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate a realistic workload.
	db := GenerateQuest(QuestConfig{
		Transactions: 800, AvgLen: 14, AvgPatternLen: 5,
		Items: 120, Patterns: 40, Seed: 77,
	})
	minsup := 30

	// 2. Round-trip through the on-disk FIMI format.
	path := filepath.Join(t.TempDir(), "pipeline.dat")
	if err := WriteFIMIFile(path, db); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFIMIFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("round trip lost transactions: %d vs %d", loaded.Len(), db.Len())
	}

	// 3. Mine with every kernel × {baseline, all applicable patterns} and
	// the alternative vertical representations. All must agree exactly.
	var want ResultSet
	check := func(name string, m Miner) {
		t.Helper()
		rs := ResultSet{}
		if err := m.Mine(loaded, minsup, rs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want == nil {
			want = rs
			if len(want) == 0 {
				t.Fatal("degenerate pipeline workload")
			}
			return
		}
		if !rs.Equal(want) {
			t.Fatalf("%s disagrees with the reference:\n%s", name, rs.Diff(want, 8))
		}
	}
	for _, algo := range []Algorithm{LCM, Eclat, FPGrowth, Apriori} {
		for _, ps := range []PatternSet{0, Applicable(algo)} {
			m, err := NewMiner(algo, ps)
			if err != nil {
				t.Fatal(err)
			}
			check(m.Name(), m)
		}
	}
	check("tidset", NewTidsetEclat())
	check("diffset", NewDiffsetEclat())
	check("cache-conscious fpgrowth", NewCacheConsciousFPGrowth(0))

	// 4. Closed/maximal views are consistent subsets.
	cl, err := MineClosed(loaded, minsup)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cl {
		rs := ResultSet{}
		rs.Collect(s.Items, s.Support)
		for k, v := range rs {
			if want[k] != v {
				t.Fatalf("closed set %s=%d not in the frequent collection", k, v)
			}
		}
	}

	// 5. Rules derived from the full collection are consistent with the
	// autotuned mining path.
	rec := Recommend(loaded, minsup)
	sets, err := Mine(loaded, rec.Algorithm, rec.Patterns, minsup)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != len(want) {
		t.Fatalf("recommended kernel (%s) mined %d sets, reference has %d", rec, len(sets), len(want))
	}
	rules := GenerateRules(sets, loaded.Len(), RuleParams{MinConfidence: 0.7})
	for _, r := range rules {
		u := append(append([]Item(nil), r.Antecedent...), r.Consequent...)
		rs := ResultSet{}
		rs.Collect(u, r.Support)
		for k, v := range rs {
			if want[k] != v {
				t.Fatalf("rule support inconsistent for %s: %d vs %d", k, v, want[k])
			}
		}
	}

	// 6. The same database drives the simulator without error on both
	// machines, and tuned configurations never lose cycles to the
	// baseline by more than the preprocessing cost bound.
	for _, cfg := range []memsim.Config{memsim.M1(), memsim.M2()} {
		base := simkern.LCM(loaded, minsup, 0, cfg, simkern.LCMOptions{MaxColumns: 24}).TotalCycles()
		tuned := simkern.LCM(loaded, minsup, PatternSet(Aggregate|Compact|Tile|Prefetch), cfg, simkern.LCMOptions{MaxColumns: 24}).TotalCycles()
		if tuned <= 0 || base <= 0 {
			t.Fatalf("%s: zero cycles", cfg.Name)
		}
		if tuned > base*1.05 {
			t.Fatalf("%s: tuned LCM slower than baseline: %.0f vs %.0f", cfg.Name, tuned, base)
		}
	}
}

func TestEndToEndAutotuneAcrossTable6(t *testing.T) {
	// Every Table 6 dataset must flow through the autotuner and the
	// recommended miner without error, and the recommended configuration
	// must reproduce the baseline's result set.
	for _, ds := range Table6Datasets(0.0008, 3) {
		rec := RecommendFor(ds.DB, ds.Support*4, M1())
		tuned, err := Mine(ds.DB, rec.Algorithm, rec.Patterns, ds.Support*4)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		base, err := Mine(ds.DB, rec.Algorithm, 0, ds.Support*4)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuned) != len(base) {
			t.Fatalf("%s: tuned %d sets vs baseline %d", ds.Name, len(tuned), len(base))
		}
	}
}
