package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"fpm"
)

var kernels = []fpm.Algorithm{fpm.LCM, fpm.Eclat, fpm.FPGrowth}

// parallelWorkers is the pool size of the parallel cells: every CPU, and
// at least two so the pool's stealing and merging run even on one CPU.
func parallelWorkers() int {
	if n := runtime.NumCPU(); n > 1 {
		return n
	}
	return 2
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// mineInmem is the mine-inmem workload: one closed-loop caller sweeping
// every corpus × kernel cell from file to listing, sequentially and on
// the work-stealing pool.
type mineInmem struct {
	corpora []corpus
	oracles []oracle
}

func setupMineInmem(dir string, seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &mineInmem{}
	for _, p := range minePresets {
		c, _, err := writeCorpus(dir, p, rng)
		if err != nil {
			return nil, err
		}
		o, err := mineOracle(c)
		if err != nil {
			return nil, err
		}
		w.corpora = append(w.corpora, c)
		w.oracles = append(w.oracles, o)
	}
	return w, nil
}

func (w *mineInmem) close() error { return nil }

// cell is one measured path→listing call.
type cell struct {
	parse, mine time.Duration
	parseAlloc  uint64
	mineAlloc   uint64
	snap        fpm.Snapshot
}

// runCell parses c and mines it with k on workers workers, timing the two
// public calls, and checks the listing against the oracle.
func runCell(c corpus, o oracle, k fpm.Algorithm, workers int, tr *tracer, parent int) (cell, error) {
	key := fmt.Sprintf("%s/%s/w%d", c.Name, k, workers)
	a0 := allocBytes()
	t0 := time.Now()
	db, err := fpm.ReadFIMIFile(c.Path)
	t1 := time.Now()
	a1 := allocBytes()
	if err != nil {
		return cell{}, err
	}
	sets, snap, err := fpm.WithMetrics(db, k, fpm.Applicable(k), c.Support, workers)
	t2 := time.Now()
	a2 := allocBytes()
	layer := string(k)
	if workers != 1 {
		layer = "parallel"
	}
	tr.add(parent, "fpm.ReadFIMIFile", "fimi", key, t0, t1)
	tr.add(parent, "fpm.WithMetrics", layer, key, t1, t2)
	res := cell{parse: t1.Sub(t0), mine: t2.Sub(t1), parseAlloc: a1 - a0, mineAlloc: a2 - a1, snap: snap}
	if err != nil {
		return res, fmt.Errorf("%s: %w", key, err)
	}
	if d := digest(sets); d != o.Digest || len(sets) != o.Count {
		return res, fmt.Errorf("%s: listing digest %016x (%d itemsets), oracle %016x (%d)", key, d, len(sets), o.Digest, o.Count)
	}
	return res, nil
}

func (w *mineInmem) window(d time.Duration, r *report, tr *tracer) (outcome, error) {
	var out outcome
	pw := parallelWorkers()
	var (
		sweeps, parSweeps []float64
		kernelSweeps      = map[fpm.Algorithm][]float64{}
		parse, parseRate  []float64
		parseAlloc        []float64
		busy              = map[string][]float64{}
		alloc             = map[fpm.Algorithm][]float64{}
		snaps             = map[fpm.Algorithm][]fpm.Snapshot{}
		seqBusy, parBusy  = map[fpm.Algorithm]float64{}, map[fpm.Algorithm]float64{}
		util, stolen      []float64
		stealFail, merge  []float64
	)
	start := time.Now()
	for len(sweeps) == 0 || time.Since(start) < d {
		root := tr.id()
		sweepStart := time.Now()
		var sweep, par float64
		perKernel := map[fpm.Algorithm]float64{}
		for i, c := range w.corpora {
			fi, err := os.Stat(c.Path)
			if err != nil {
				return out, err
			}
			for _, k := range kernels {
				for _, workers := range []int{1, pw} {
					out.attempted++
					res, err := runCell(c, w.oracles[i], k, workers, tr, root)
					if err != nil {
						out.failed++
						out.fail(err)
						continue
					}
					t := ms(res.parse + res.mine)
					sweep += t
					parse = append(parse, ms(res.parse))
					parseRate = append(parseRate, float64(fi.Size())/mib/res.parse.Seconds())
					parseAlloc = append(parseAlloc, float64(res.parseAlloc)/mib)
					if workers == 1 {
						perKernel[k] += t
						busy[string(k)+"."+c.Name] = append(busy[string(k)+"."+c.Name], ms(res.mine))
						alloc[k] = append(alloc[k], float64(res.mineAlloc)/mib)
						snaps[k] = append(snaps[k], res.snap)
						seqBusy[k] += ms(res.mine)
						continue
					}
					par += t
					parBusy[k] += ms(res.mine)
					if p := res.snap.Parallel; p != nil {
						util = append(util, workerUtil(p))
						stolen = append(stolen, float64(p.TasksStolen))
						stealFail = append(stealFail, float64(p.StealFailures))
						merge = append(merge, float64(p.MergeNanos)/1e6)
					}
				}
			}
		}
		tr.record(span{ID: root, Name: "sweep", Layer: "bench", Key: fmt.Sprint(len(sweeps)), Start: sweepStart, End: time.Now()})
		sweeps = append(sweeps, sweep)
		parSweeps = append(parSweeps, par)
		for _, k := range kernels {
			kernelSweeps[k] = append(kernelSweeps[k], perKernel[k]/1e3)
		}
	}
	elapsed := time.Since(start)

	r.dist("latency_p50_ms", sweeps, "ms", "median sweep: 9 sequential + 9 parallel parse-and-mine cells")
	r.add("goodput_ops_s", float64(out.attempted-out.failed)/elapsed.Seconds(), "ops/s", out.attempted, "correct path→listing mines per second")
	for _, k := range kernels {
		r.dist("mine_s."+string(k), kernelSweeps[k], "s", "median over sweeps, sequential, summed over 3 corpora")
	}
	parS := make([]float64, len(parSweeps))
	for i, v := range parSweeps {
		parS[i] = v / 1e3
	}
	r.dist("mine_s.parallel", parS, "s", fmt.Sprintf("median sweep of the 9 cells at workers=%d", pw))

	r.dist("fimi.parse_ms", parse, "ms", "per file")
	r.dist("fimi.parse_mib_s", parseRate, "MiB/s", "per file")
	r.dist("fimi.parse_alloc_mib", parseAlloc, "MiB", "per file")
	for _, k := range kernels {
		ks := string(k)
		for _, c := range w.corpora {
			r.dist(ks+".busy_ms."+c.Name, busy[ks+"."+c.Name], "ms", "sequential mine")
		}
		r.dist(ks+".alloc_mib", alloc[k], "MiB", "per sequential mine")
		var nodes, sup, prunes, items []float64
		for _, s := range snaps[k] {
			nodes = append(nodes, float64(s.Nodes))
			sup = append(sup, float64(s.Supports))
			prunes = append(prunes, float64(s.Prunes))
			items = append(items, float64(s.Emitted))
		}
		r.dist(ks+".nodes", nodes, "count", "per sequential mine")
		r.dist(ks+".supports", sup, "count", "per sequential mine")
		r.dist(ks+".prunes", prunes, "count", "per sequential mine")
		r.dist(ks+".itemsets", items, "count", "per sequential mine")
		if parBusy[k] > 0 {
			r.add("parallel.speedup."+ks, seqBusy[k]/parBusy[k], "ratio", len(sweeps), fmt.Sprintf("sequential / workers=%d mine time", pw))
		}
	}
	r.dist("parallel.util", util, "ratio", "mean worker busy share per parallel mine")
	r.dist("parallel.tasks_stolen", stolen, "count", "per parallel mine")
	r.dist("parallel.steal_failures", stealFail, "count", "per parallel mine")
	r.dist("parallel.merge_ms", merge, "ms", "per parallel mine")
	return out, nil
}

// workerUtil is the mean busy share over the pool's workers.
func workerUtil(p *fpm.ParallelRunStats) float64 {
	if len(p.Workers) == 0 {
		return 0
	}
	var u float64
	for _, w := range p.Workers {
		u += w.Util
	}
	return u / float64(len(p.Workers))
}

// mineOOC is the mine-ooc workload: one closed-loop caller mining the
// quest and docs files out of core through the partitioned two-pass path.
type mineOOC struct {
	corpora []corpus
	oracles []oracle
}

// oocBudget is the resident-memory budget of every partitioned mine: the
// files are about 0.3 MiB, and this budget cuts each into 4 chunks.
const oocBudget = 512 << 10

func setupMineOOC(dir string, seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &mineOOC{}
	for _, p := range minePresets[:2] { // ap trips the threshold-collapse guard at this budget
		c, _, err := writeCorpus(dir, p, rng)
		if err != nil {
			return nil, err
		}
		o, err := mineOracle(c)
		if err != nil {
			return nil, err
		}
		w.corpora = append(w.corpora, c)
		w.oracles = append(w.oracles, o)
	}
	return w, nil
}

func (w *mineOOC) close() error { return nil }

func (w *mineOOC) window(d time.Duration, r *report, tr *tracer) (outcome, error) {
	var out outcome
	pw := parallelWorkers()
	var sweeps, pass1, pass2, chunks, gen, yield, streamed []float64
	var util, stolen, stealFail, merge []float64
	start := time.Now()
	for len(sweeps) == 0 || time.Since(start) < d {
		root := tr.id()
		sweepStart := time.Now()
		var sweep, p1, p2, ch, g, surv, bytes float64
		for i, c := range w.corpora {
			out.attempted++
			rec := fpm.NewMetricsRecorder()
			t0 := time.Now()
			sets, ps, err := fpm.MinePartitioned(c.Path, fpm.LCM, fpm.Applicable(fpm.LCM), c.Support, oocBudget, pw, fpm.ParallelMetrics(rec))
			t1 := time.Now()
			tr.add(root, "fpm.MinePartitioned", "partition", c.Name, t0, t1)
			if err != nil {
				out.failed++
				out.fail(fmt.Errorf("%s: %w", c.Name, err))
				continue
			}
			if dg := digest(sets); dg != w.oracles[i].Digest || len(sets) != w.oracles[i].Count {
				out.failed++
				out.fail(fmt.Errorf("%s: partitioned digest %016x (%d itemsets), in-memory %016x (%d)",
					c.Name, dg, len(sets), w.oracles[i].Digest, w.oracles[i].Count))
				continue
			}
			sweep += ms(t1.Sub(t0))
			p1 += float64(ps.Pass1Nanos) / 1e6
			p2 += float64(ps.Pass2Nanos) / 1e6
			ch += float64(ps.Chunks)
			g += float64(ps.CandidatesGenerated)
			surv += float64(ps.CandidatesSurviving)
			bytes += float64(ps.BytesPass1+ps.BytesPass2) / mib
			if p := rec.Snapshot().Parallel; p != nil {
				util = append(util, workerUtil(p))
				stolen = append(stolen, float64(p.TasksStolen))
				stealFail = append(stealFail, float64(p.StealFailures))
				merge = append(merge, float64(p.MergeNanos)/1e6)
			}
		}
		tr.record(span{ID: root, Name: "sweep", Layer: "bench", Key: fmt.Sprint(len(sweeps)), Start: sweepStart, End: time.Now()})
		sweeps = append(sweeps, sweep)
		pass1 = append(pass1, p1)
		pass2 = append(pass2, p2)
		chunks = append(chunks, ch)
		gen = append(gen, g)
		if g > 0 {
			yield = append(yield, surv/g)
		}
		streamed = append(streamed, bytes)
	}
	elapsed := time.Since(start)
	sweepS := make([]float64, len(sweeps))
	for i, v := range sweeps {
		sweepS[i] = v / 1e3
	}
	r.dist("latency_p50_ms", sweeps, "ms", "median sweep: partitioned LCM on quest and docs")
	r.add("goodput_ops_s", float64(out.attempted-out.failed)/elapsed.Seconds(), "ops/s", out.attempted, "correct partitioned mines per second")
	r.dist("mine_s.ooc", sweepS, "s", fmt.Sprintf("median sweep, budget %d KiB, workers=%d", oocBudget>>10, pw))
	r.dist("partition.pass1_ms", pass1, "ms", "per sweep")
	r.dist("partition.pass2_ms", pass2, "ms", "per sweep")
	r.dist("partition.chunks", chunks, "count", "per sweep")
	r.dist("partition.candidates_generated", gen, "count", "per sweep")
	r.dist("partition.candidate_yield", yield, "ratio", "survivors / generated, per sweep")
	r.dist("fimi.streamed_mib", streamed, "MiB", "both passes, per sweep")
	r.dist("parallel.util", util, "ratio", "mean worker busy share per partitioned mine")
	r.dist("parallel.tasks_stolen", stolen, "count", "per partitioned mine")
	r.dist("parallel.steal_failures", stealFail, "count", "per partitioned mine")
	r.dist("parallel.merge_ms", merge, "ms", "per partitioned mine")
	return out, nil
}
