package fpm

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation (experiment index in DESIGN.md §4). Two kinds of measurement:
//
//   - *Native benches time the real Go kernels (testing.B wall clock);
//     they capture the patterns with genuine Go-level effects — P1 data
//     reordering, P3/P4 layout, P6.1 loop structure, P8 word-parallel
//     popcount.
//   - *Sim benches replay instrumented kernels through the memory-
//     hierarchy simulator and report simulated cycles and CPI as bench
//     metrics; they capture the architecture-only patterns (P5/P7/P7.1
//     prefetch, M1-vs-M2 platform contrasts) and regenerate the shapes of
//     Figure 2 and Figure 8.
//
// Run everything with: go test -bench=. -benchmem .

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"fpm/internal/bitvec"
	"fpm/internal/cancel"
	"fpm/internal/exp"
	"fpm/internal/memsim"
	"fpm/internal/mine"
	"fpm/internal/parallel"
	"fpm/internal/simkern"
	"fpm/internal/trace"
)

// Shared workloads, built once. Sizes are laptop-friendly; the cmd/fpmexp
// harness exposes -scale for larger runs.
var (
	benchOnce  sync.Once
	benchQuest *DB // DS1/DS2-like basket data
	benchDocs  *DB // DS3-like clustered corpus
	benchAP    *DB // DS4-like sparse random corpus
)

const (
	benchQuestSupport = 40
	benchDocsSupport  = 300
	benchAPSupport    = 10
)

func benchSetup() {
	benchOnce.Do(func() {
		benchQuest = GenerateQuest(QuestConfig{
			Transactions: 4000, AvgLen: 20, AvgPatternLen: 6,
			Items: 400, Patterns: 80, Seed: 11,
		})
		benchDocs = GenerateCorpus(CorpusConfig{
			Docs: 3000, Vocab: 3000, AvgLen: 30, ZipfS: 1.25,
			Topics: 12, TopicShare: 0.6, TopicPool: 60, Seed: 12,
		})
		benchAP = GenerateCorpus(CorpusConfig{
			Docs: 8000, Vocab: 10000, AvgLen: 10, ZipfS: 1.1,
			Shuffle: true, Seed: 13,
		})
	})
}

func mineBench(b *testing.B, db *DB, algo Algorithm, ps PatternSet, minsup int) {
	b.Helper()
	m, err := NewMiner(algo, ps)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cc CountCollector
		if err := m.Mine(db, minsup, &cc); err != nil {
			b.Fatal(err)
		}
		if cc.N == 0 {
			b.Fatal("degenerate workload")
		}
	}
}

// ---------------------------------------------------------------------
// Table 3 — kernel characterisation: the three depth-first kernels plus
// the Apriori baseline on the same basket workload (also backs the §4
// claim that depth-first search dominates breadth-first).
// ---------------------------------------------------------------------

func BenchmarkTable3LCM(b *testing.B) {
	benchSetup()
	mineBench(b, benchQuest, LCM, 0, benchQuestSupport)
}
func BenchmarkTable3Eclat(b *testing.B) {
	benchSetup()
	mineBench(b, benchQuest, Eclat, 0, benchQuestSupport)
}
func BenchmarkTable3FPGrowth(b *testing.B) {
	benchSetup()
	mineBench(b, benchQuest, FPGrowth, 0, benchQuestSupport)
}
func BenchmarkTable3Apriori(b *testing.B) {
	benchSetup()
	// Breadth-first candidate generation is orders of magnitude slower;
	// keep the level-wise scans affordable with a higher threshold.
	mineBench(b, benchQuest, Apriori, 0, benchQuestSupport*4)
}

// ---------------------------------------------------------------------
// Figure 8 (native) — per-lever wall-clock for each kernel on the basket
// workload. The lever grouping matches the paper's bars (Lex / Reorg /
// Pref / Tile / SIMD / all).
// ---------------------------------------------------------------------

func benchLevers(b *testing.B, db *DB, algo Algorithm, minsup int) {
	b.Helper()
	benchSetup()
	b.Run("baseline", func(b *testing.B) { mineBench(b, db, algo, 0, minsup) })
	for _, l := range exp.Levers(algo) {
		l := l
		b.Run(l.Name, func(b *testing.B) { mineBench(b, db, algo, l.Patterns, minsup) })
	}
	b.Run("all", func(b *testing.B) { mineBench(b, db, algo, Applicable(algo), minsup) })
}

func BenchmarkFigure8LCMNative(b *testing.B) {
	benchSetup()
	benchLevers(b, benchQuest, LCM, benchQuestSupport)
}
func BenchmarkFigure8EclatNative(b *testing.B) {
	benchSetup()
	benchLevers(b, benchDocs, Eclat, benchDocsSupport)
}
func BenchmarkFigure8FPGrowthNative(b *testing.B) {
	benchSetup()
	benchLevers(b, benchQuest, FPGrowth, benchQuestSupport)
}

// ---------------------------------------------------------------------
// Kernel rows — the three tuned kernels, sequential at their Applicable
// pattern sets, on the in-memory mining presets (the quest, docs and ap
// corpora at half the benchSetup sizes). Each row reports ns/op, B/op,
// allocs/op and the itemsets it mined, so allocation work in the
// recursions shows next to wall time. CI runs it at -benchtime 1x.
// ---------------------------------------------------------------------

type kernelCorpus struct {
	name    string
	db      *DB
	support int
}

var (
	kernelOnce    sync.Once
	kernelCorpora []kernelCorpus
)

func kernelSetup() {
	kernelOnce.Do(func() {
		kernelCorpora = []kernelCorpus{
			{"quest", GenerateQuest(QuestConfig{
				Transactions: 2000, AvgLen: 20, AvgPatternLen: 6,
				Items: 400, Patterns: 80, Seed: 11,
			}), 40},
			{"docs", GenerateCorpus(CorpusConfig{
				Docs: 1500, Vocab: 3000, AvgLen: 30, ZipfS: 1.25,
				Topics: 12, TopicShare: 0.6, TopicPool: 60, Seed: 12,
			}), 200},
			{"ap", GenerateCorpus(CorpusConfig{
				Docs: 4000, Vocab: 10000, AvgLen: 10, ZipfS: 1.1,
				Shuffle: true, Seed: 13,
			}), 10},
		}
	})
}

func BenchmarkKernelsInmem(b *testing.B) {
	kernelSetup()
	for _, c := range kernelCorpora {
		for _, algo := range []Algorithm{LCM, Eclat, FPGrowth} {
			c, algo := c, algo
			b.Run(c.name+"/"+string(algo), func(b *testing.B) {
				m, err := NewMiner(algo, Applicable(algo))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var cc CountCollector
				for i := 0; i < b.N; i++ {
					cc = CountCollector{}
					if err := m.Mine(c.db, c.support, &cc); err != nil {
						b.Fatal(err)
					}
				}
				if cc.N == 0 {
					b.Fatal("degenerate workload")
				}
				b.ReportMetric(float64(cc.N), "itemsets")
			})
		}
	}
}

// ---------------------------------------------------------------------
// Figure 2 (simulated) — per-function CPI on the modelled M1. Reported as
// bench metrics: cycles/op is the simulated cycle count, CPI the
// cycles-per-instruction of the hot function.
// ---------------------------------------------------------------------

func BenchmarkFigure2CPI(b *testing.B) {
	benchSetup()
	cfg := memsim.M1()
	run := func(name string, f func() simkern.Phase) {
		b.Run(name, func(b *testing.B) {
			var p simkern.Phase
			for i := 0; i < b.N; i++ {
				p = f()
			}
			b.ReportMetric(p.CPI(), "CPI")
			b.ReportMetric(p.Cycles, "simcycles")
		})
	}
	run("LCM/CalcFreq", func() simkern.Phase {
		return simkern.LCM(benchQuest, benchQuestSupport, 0, cfg,
			simkern.LCMOptions{MaxColumns: 48}).Phase("CalcFreq")
	})
	run("LCM/RmDupTrans", func() simkern.Phase {
		return simkern.LCM(benchQuest, benchQuestSupport, 0, cfg,
			simkern.LCMOptions{MaxColumns: 48}).Phase("RmDupTrans")
	})
	run("Eclat/AndCount", func() simkern.Phase {
		return simkern.Eclat(benchQuest, benchQuestSupport, 0, cfg,
			simkern.EclatOptions{MaxVectors: 32, MaxNodes: 10_000}).Phase("AndCount")
	})
	run("FPGrowth/Traverse", func() simkern.Phase {
		return simkern.FPGrowth(benchQuest, benchQuestSupport, 0, cfg,
			simkern.FPGrowthOptions{}).Phase("Traverse")
	})
}

// ---------------------------------------------------------------------
// Figure 8 (simulated) — per-kernel, per-machine speedup of the combined
// pattern set over baseline, as simulated cycles. One sub-bench per panel;
// the speedup is reported as a metric so the bench output reads like the
// figure.
// ---------------------------------------------------------------------

func benchFig8Sim(b *testing.B, algo mine.Algorithm, cfg memsim.Config, db *DB, minsup int) {
	b.Helper()
	var all mine.PatternSet
	for _, l := range exp.Levers(algo) {
		all |= l.Patterns
	}
	run := func(ps mine.PatternSet) float64 {
		switch algo {
		case mine.LCM:
			return simkern.LCM(db, minsup, ps, cfg, simkern.LCMOptions{MaxColumns: 48}).TotalCycles()
		case mine.Eclat:
			return simkern.Eclat(db, minsup, ps, cfg, simkern.EclatOptions{MaxVectors: 32, MaxNodes: 10_000}).TotalCycles()
		default:
			return simkern.FPGrowth(db, minsup, ps, cfg, simkern.FPGrowthOptions{}).TotalCycles()
		}
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		base := run(0)
		tuned := run(all)
		speedup = base / tuned
	}
	b.ReportMetric(speedup, "speedup(all)")
}

func BenchmarkFigure8Sim(b *testing.B) {
	benchSetup()
	for _, k := range []struct {
		algo   mine.Algorithm
		db     func() *DB
		minsup int
	}{
		{mine.LCM, func() *DB { return benchQuest }, benchQuestSupport},
		{mine.Eclat, func() *DB { return benchQuest }, benchQuestSupport},
		{mine.FPGrowth, func() *DB { return benchQuest }, benchQuestSupport},
	} {
		k := k
		for _, cfg := range []memsim.Config{memsim.M1(), memsim.M2()} {
			cfg := cfg
			b.Run(string(k.algo)+"/"+cfg.Name, func(b *testing.B) {
				benchFig8Sim(b, k.algo, cfg, k.db(), k.minsup)
			})
		}
	}
}

// ---------------------------------------------------------------------
// Table 6 — dataset generation cost (and a guard that the generators stay
// fast enough for the experiment harness).
// ---------------------------------------------------------------------

func BenchmarkTable6Generation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sets := Table6Datasets(0.002, int64(i))
		if len(sets) != 4 {
			b.Fatal("bad preset count")
		}
	}
}

// ---------------------------------------------------------------------
// P1 — lexicographic ordering preprocessing cost (the overhead side of
// the Lex bars; its n·log n growth is the paper's DS4 lesson).
// ---------------------------------------------------------------------

func BenchmarkLexOrder(b *testing.B) {
	benchSetup()
	for _, w := range []struct {
		name string
		db   *DB
	}{{"quest4k", benchQuest}, {"ap8k", benchAP}} {
		w := w
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lexed, _ := LexOrder(w.db)
				if lexed.Len() != w.db.Len() {
					b.Fatal("lost transactions")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// P8 — the SIMDization micro-contrast: table-lookup popcount vs word-
// parallel computation on the Eclat AND+count inner loop (backs the
// Figure 8(c,d) SIMD bars with native numbers).
// ---------------------------------------------------------------------

func BenchmarkP8AndCount(b *testing.B) {
	benchSetup()
	// Build two realistic occurrence vectors from the corpus workload.
	n := benchDocs.Len()
	freq := benchDocs.Frequencies()
	var i1, i2 Item
	best1, best2 := -1, -1
	for it, f := range freq {
		switch {
		case f > best1:
			best2, i2 = best1, i1
			best1, i1 = f, Item(it)
		case f > best2:
			best2, i2 = f, Item(it)
		}
	}
	_ = best2
	va, vb := bitvec.New(n), bitvec.New(n)
	for ti, t := range benchDocs.Tx {
		for _, it := range t {
			if it == i1 {
				va.Set(ti)
			}
			if it == i2 {
				vb.Set(ti)
			}
		}
	}

	b.Run("table", func(b *testing.B) {
		dst := bitvec.New(n)
		s := 0
		for i := 0; i < b.N; i++ {
			s += bitvec.AndCountTable(dst, va, vb)
		}
		sinkInt(b, s)
	})
	b.Run("simd", func(b *testing.B) {
		dst := bitvec.New(n)
		s := 0
		for i := 0; i < b.N; i++ {
			s += bitvec.AndCount(dst, va, vb)
		}
		sinkInt(b, s)
	})
}

func sinkInt(b *testing.B, v int) {
	if v < 0 {
		b.Fatal("impossible")
	}
}

// ---------------------------------------------------------------------
// P2 — the representation choice as data: every database representation
// (horizontal array, dense bit matrix, sparse tidsets, diffsets,
// hyper-structure, FP-tree) mining the same dense and sparse workloads.
// ---------------------------------------------------------------------

func BenchmarkP2Representations(b *testing.B) {
	benchSetup()
	reps := []struct {
		name  string
		miner func() Miner
	}{
		{"lcm-array", func() Miner { m, _ := NewMiner(LCM, 0); return m }},
		{"eclat-bitmatrix", func() Miner { m, _ := NewMiner(Eclat, 0); return m }},
		{"eclat-tidset", func() Miner { return NewTidsetEclat() }},
		{"declat-diffset", func() Miner { return NewDiffsetEclat() }},
		{"hmine-hyperstruct", func() Miner { return NewHMine() }},
		{"fpgrowth-tree", func() Miner { m, _ := NewMiner(FPGrowth, 0); return m }},
	}
	workloads := []struct {
		name   string
		db     *DB
		minsup int
	}{
		{"dense", benchDocs, benchDocsSupport},
		{"sparse", benchAP, benchAPSupport * 4},
	}
	for _, w := range workloads {
		for _, r := range reps {
			b.Run(w.name+"/"+r.name, func(b *testing.B) {
				m := r.miner()
				for i := 0; i < b.N; i++ {
					var cc CountCollector
					if err := m.Mine(w.db, w.minsup, &cc); err != nil {
						b.Fatal(err)
					}
					if cc.N == 0 {
						b.Fatal("degenerate workload")
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Closed/maximal mining vs complete enumeration — the compression LCM's
// namesake capability buys.
// ---------------------------------------------------------------------

func BenchmarkClosedVsAll(b *testing.B) {
	benchSetup()
	b.Run("all", func(b *testing.B) { mineBench(b, benchDocs, LCM, 0, benchDocsSupport) })
	b.Run("closed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sets, err := MineClosed(benchDocs, benchDocsSupport)
			if err != nil {
				b.Fatal(err)
			}
			if len(sets) == 0 {
				b.Fatal("degenerate workload")
			}
		}
	})
	b.Run("maximal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sets, err := MineMaximal(benchDocs, benchDocsSupport)
			if err != nil {
				b.Fatal(err)
			}
			if len(sets) == 0 {
				b.Fatal("degenerate workload")
			}
		}
	})
}

// ---------------------------------------------------------------------
// Work-stealing task-parallel mining: overhead and scaling.
// ---------------------------------------------------------------------

func BenchmarkParallelMine(b *testing.B) {
	benchSetup()
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			m, err := NewParallel(workers, LCM, 0)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				var cc CountCollector
				if err := m.Mine(benchDocs, benchDocsSupport, &cc); err != nil {
					b.Fatal(err)
				}
				if cc.N == 0 {
					b.Fatal("degenerate workload")
				}
			}
		})
	}
}

// benchSkew is a skewed Table-6-style workload (WebDocs-like Zipf corpus):
// a handful of hot items own most of the search tree, so a static
// first-level decomposition serialises on the hottest item's subtree while
// work stealing keeps splitting it. Built lazily — it is heavier than the
// benchSetup workloads.
var benchSkew *DB

const benchSkewSupport = 250

func benchSkewSetup() {
	if benchSkew == nil {
		benchSkew = GenerateCorpus(CorpusConfig{
			Docs: 6000, Vocab: 2000, AvgLen: 24, ZipfS: 1.3,
			Topics: 8, TopicShare: 0.7, TopicPool: 50, Seed: 21,
		})
	}
}

// BenchmarkParallelScaling measures the work-stealing scheduler across
// worker counts on the skewed workload, for the two Splitter kernels. CI
// runs this at -benchtime 1x as a regression canary.
func BenchmarkParallelScaling(b *testing.B) {
	benchSkewSetup()
	kernels := []struct {
		algo Algorithm
		sup  int
	}{{LCM, benchSkewSupport}, {Eclat, benchSkewSupport}}
	for _, k := range kernels {
		for _, workers := range []int{1, 2, 4, 8} {
			k, workers := k, workers
			b.Run(fmt.Sprintf("%s/workers-%d", k.algo, workers), func(b *testing.B) {
				m, err := NewParallel(workers, k.algo, 0)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					var cc CountCollector
					if err := m.Mine(benchSkew, k.sup, &cc); err != nil {
						b.Fatal(err)
					}
					if cc.N == 0 {
						b.Fatal("degenerate workload")
					}
				}
			})
		}
	}
}

// BenchmarkParallelCollect isolates the collection path: the batched
// shard merge (CountCollector implements BatchCollector) versus the
// generic per-itemset replay, on identical mining work.
func BenchmarkParallelCollect(b *testing.B) {
	benchSkewSetup()
	m, err := NewParallel(4, LCM, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var cc CountCollector
			if err := m.Mine(benchSkew, benchSkewSupport, &cc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var cc plainCountCollector
			if err := m.Mine(benchSkew, benchSkewSupport, &cc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// plainCountCollector deliberately does NOT implement BatchCollector.
type plainCountCollector struct{ n int }

func (c *plainCountCollector) Collect(items []Item, support int) { c.n++ }

// ---------------------------------------------------------------------
// Out-of-core mining: wall time and peak heap of the SON two-pass
// partitioned miner against the load-then-mine in-memory path on a
// skewed Table-6-style corpus an order of magnitude larger than the
// memory budget. The claim under test (EXPERIMENTS.md, "Out-of-core
// mining"): partitioned peak heap growth stays under 2x the budget while
// the in-memory path must hold the whole database and blows through it.
// ---------------------------------------------------------------------

// peakHeapDuring runs f and returns its peak heap growth in bytes: the
// maximum sampled runtime.MemStats.HeapAlloc minus the post-GC baseline.
// Sampling every 200us with 2x headroom in the assertion makes the
// between-samples blind spot irrelevant at these run lengths. The
// section runs under GOGC=10 so HeapAlloc tracks the live working set
// instead of collector slack — with the default GOGC=100 the heap is
// allowed to grow to 2x whatever is live, and the measurement would
// report GC policy, not the miner's footprint. Both contestants run
// under the same setting, so the comparison stays fair.
func peakHeapDuring(f func()) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := int64(0)
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var m runtime.MemStats
		for {
			runtime.ReadMemStats(&m)
			if g := int64(m.HeapAlloc) - int64(base); g > peak {
				peak = g
			}
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	f()
	close(done)
	<-sampled
	return peak
}

func BenchmarkPartitionedVsInMemory(b *testing.B) {
	// 20x the BenchmarkParallelScaling corpus: ~8.6 MiB resident, mined
	// out-of-core under a 4 MiB budget. Shuffle matters: with topic-
	// clustered disk order each chunk is topic-pure and locally ultra-
	// dense, and SON's locally-frequent candidate generation explodes —
	// the partition-skew failure mode documented in DESIGN.md.
	db := GenerateCorpus(CorpusConfig{
		Docs: 60_000, Vocab: 2000, AvgLen: 24, ZipfS: 1.3,
		Topics: 8, TopicShare: 0.7, TopicPool: 50, Shuffle: true, Seed: 21,
	})
	path := filepath.Join(b.TempDir(), "skew.dat")
	if err := WriteFIMIFile(path, db); err != nil {
		b.Fatal(err)
	}
	db = nil
	runtime.GC()
	const minsup = 4500
	const budget = int64(4 << 20)

	b.Run("in-memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var n int
			peak := peakHeapDuring(func() {
				loaded, err := ReadFIMIFile(path)
				if err != nil {
					b.Fatal(err)
				}
				sets, err := Mine(loaded, LCM, 0, minsup)
				if err != nil {
					b.Fatal(err)
				}
				n = len(sets)
			})
			if n == 0 {
				b.Fatal("degenerate workload")
			}
			b.ReportMetric(float64(peak)/(1<<20), "peakheapMiB")
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var n int
			peak := peakHeapDuring(func() {
				sets, _, err := MinePartitioned(path, LCM, 0, minsup, budget, 1)
				if err != nil {
					b.Fatal(err)
				}
				n = len(sets)
			})
			if n == 0 {
				b.Fatal("degenerate workload")
			}
			if peak >= 2*budget {
				b.Fatalf("partitioned peak heap growth %d B breaches 2x the %d B budget", peak, budget)
			}
			b.ReportMetric(float64(peak)/(1<<20), "peakheapMiB")
		}
	})
}

// BenchmarkMetricsOverhead measures the cost of the observability layer on
// the skewed-corpus LCM workload (the BenchmarkParallelScaling input):
// "off" is the production configuration — counter sites compiled in but
// given a nil recorder, so every hot-path increment is a single nil check —
// and must stay within the 2% noise band of the pre-instrumentation
// kernel; "on" additionally pays per-run counter accumulation and the
// end-of-run atomic flush. The parallel pair adds the scheduler's event
// counters and per-worker timing. Measured deltas are recorded in
// EXPERIMENTS.md ("Observability overhead"). CI runs this at -benchtime 1x
// as a compile canary.
func BenchmarkMetricsOverhead(b *testing.B) {
	benchSkewSetup()
	seq := func(rec *MetricsRecorder) func(b *testing.B) {
		return func(b *testing.B) {
			m, err := newInstrumentedMiner(LCM, 0, rec, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				var cc CountCollector
				if err := m.Mine(benchSkew, benchSkewSupport, &cc); err != nil {
					b.Fatal(err)
				}
				if cc.N == 0 {
					b.Fatal("degenerate workload")
				}
			}
		}
	}
	b.Run("lcm/off", seq(nil))
	b.Run("lcm/on", seq(NewMetricsRecorder()))

	par := func(rec *MetricsRecorder) func(b *testing.B) {
		return func(b *testing.B) {
			opts := []ParallelOption{}
			if rec != nil {
				opts = append(opts, ParallelMetrics(rec))
			}
			m, err := NewParallel(4, LCM, 0, opts...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				var cc CountCollector
				if err := m.Mine(benchSkew, benchSkewSupport, &cc); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("parallel4/off", par(nil))
	b.Run("parallel4/on", par(NewMetricsRecorder()))
}

// BenchmarkTraceOverhead measures the span-recording layer on the same
// workload, mirroring BenchmarkMetricsOverhead: "off" is the production
// configuration — trace sites compiled in, nil recorder, so every span
// site is one nil check on a cached *Track — and must stay within 3% of
// the untraced run; "on" pays ring-buffer appends at first-level recursion
// boundaries (sequential) or per scheduler task/idle interval (parallel).
// Flush/serialisation is excluded: it happens once, after mining. Measured
// deltas are recorded in EXPERIMENTS.md ("Tracing overhead"). CI runs this
// at -benchtime 1x as a compile canary.
func BenchmarkTraceOverhead(b *testing.B) {
	benchSkewSetup()
	seq := func(tr *trace.Recorder) func(b *testing.B) {
		return func(b *testing.B) {
			m, err := newInstrumentedMiner(LCM, 0, nil, tr, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				var cc CountCollector
				if err := m.Mine(benchSkew, benchSkewSupport, &cc); err != nil {
					b.Fatal(err)
				}
				if cc.N == 0 {
					b.Fatal("degenerate workload")
				}
			}
		}
	}
	b.Run("lcm/off", seq(nil))
	b.Run("lcm/on", seq(trace.NewRecorder(trace.WithOutput(io.Discard))))

	par := func(tr *trace.Recorder) func(b *testing.B) {
		return func(b *testing.B) {
			opts := []ParallelOption{}
			if tr != nil {
				opts = append(opts, parallel.WithTrace(tr))
			}
			m, err := NewParallel(4, LCM, 0, opts...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				var cc CountCollector
				if err := m.Mine(benchSkew, benchSkewSupport, &cc); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("parallel4/off", par(nil))
	b.Run("parallel4/on", par(trace.NewRecorder(trace.WithOutput(io.Discard))))
}

// BenchmarkCancelOverhead measures the robustness layer's disabled-path
// tax: the nil cancel-flag checks at every recursion node, the disabled
// failpoint sites, and (the /ctx variants) a live never-cancelled context
// armed on the run. The /off variants mine exactly the workload, through
// exactly the harness, of PR 4's BenchmarkTraceOverhead lcm/off and
// parallel4/off, so comparing against a PR 4 HEAD checkout isolates what
// this PR added to the hot path; budget 3% (EXPERIMENTS.md "Cancellation
// & failpoint overhead").
// CI runs this at -benchtime 1x as a compile canary.
func BenchmarkCancelOverhead(b *testing.B) {
	benchSkewSetup()
	seq := func(ctx context.Context) func(b *testing.B) {
		return func(b *testing.B) {
			// Same CountCollector harness as BenchmarkTraceOverhead/lcm/off —
			// materializing itemsets would drown the per-node check in
			// allocation noise and break the cross-PR comparison.
			cf, stop := cancel.FromContext(ctx)
			defer stop()
			m, err := newInstrumentedMiner(LCM, 0, nil, nil, cf)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				var cc CountCollector
				if err := m.Mine(benchSkew, benchSkewSupport, &cc); err != nil {
					b.Fatal(err)
				}
				if cc.N == 0 {
					b.Fatal("degenerate workload")
				}
			}
		}
	}
	par := func(ctx context.Context) func(b *testing.B) {
		return func(b *testing.B) {
			opts := []ParallelOption{}
			if ctx != nil {
				opts = append(opts, WithContext(ctx))
			}
			m, err := NewParallel(4, LCM, 0, opts...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				var cc CountCollector
				if err := m.Mine(benchSkew, benchSkewSupport, &cc); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	ctx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	b.Run("lcm/off", seq(nil))
	b.Run("lcm/ctx", seq(ctx))
	b.Run("parallel4/off", par(nil))
	b.Run("parallel4/ctx", par(ctx))
}
