// Command perfbench is the repository's benchmark. It runs one workload
// against the public entry points of the mining and serving layers,
// checks every answer, prints every metric with its unit and sample
// count, and ends with one JSON line of the metrics BENCHMARK.json
// declares:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets up the workload setupRepeats times (setup_s is
// the median), then measures the end-to-end metrics for --seconds with
// tracing off. With --trace 1 it sets up once, measures half the time
// untraced and half traced, and reports the per-layer metrics of the
// traced half, the self time of each layer and the tracing overhead.
// It exits non-zero when an answer check or a workload self-check fails.
// See README.md for the workloads and the prediction table.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// runner is one set-up workload.
type runner interface {
	// window runs the workload for about d, adding its metrics to r and,
	// when tr is non-nil, its spans to tr.
	window(d time.Duration, r *report, tr *tracer) (outcome, error)
	close() error
}

// outcome counts a window's operations and keeps its failed checks.
type outcome struct {
	attempted, failed int
	failures          []string // failed answer checks
	checks            []string // failed workload self-checks
}

func (o *outcome) fail(err error)  { o.failures = append(o.failures, err.Error()) }
func (o *outcome) check(err error) { o.checks = append(o.checks, err.Error()) }

func (o *outcome) merge(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.failures = append(o.failures, p.failures...)
	o.checks = append(o.checks, p.checks...)
}

var workloads = map[string]func(dir string, seed int64) (runner, error){
	"mine-inmem": setupMineInmem,
	"mine-ooc":   setupMineOOC,
	"serve-cold": setupServeCold,
}

// endToEnd and perLayer are the metrics of BENCHMARK.json, in its order.
var endToEnd = []declared{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"goodput_ops_s", "ops/s"},
	{"live_heap_mib", "MiB"},
}

var perLayer = func() []declared {
	d := []declared{
		{"fimi.parse_ms", "ms"}, {"fimi.parse_mib_s", "MiB/s"}, {"fimi.parse_alloc_mib", "MiB"}, {"fimi.streamed_mib", "MiB"},
	}
	for _, k := range []string{"lcm", "eclat", "fpgrowth"} {
		for _, c := range []string{"quest", "docs", "ap"} {
			d = append(d, declared{k + ".busy_ms." + c, "ms"})
		}
		d = append(d, declared{k + ".alloc_mib", "MiB"}, declared{k + ".nodes", "count"}, declared{k + ".supports", "count"},
			declared{k + ".prunes", "count"}, declared{k + ".itemsets", "count"})
	}
	for _, k := range []string{"lcm", "eclat", "fpgrowth"} {
		d = append(d, declared{"parallel.speedup." + k, "ratio"})
	}
	d = append(d,
		declared{"parallel.util", "ratio"}, declared{"parallel.tasks_stolen", "count"},
		declared{"parallel.steal_failures", "count"}, declared{"parallel.merge_ms", "ms"},
		declared{"partition.pass1_ms", "ms"}, declared{"partition.pass2_ms", "ms"}, declared{"partition.chunks", "count"},
		declared{"partition.candidates_generated", "count"}, declared{"partition.candidate_yield", "ratio"},
		declared{"servecache.acquire_ms", "ms"}, declared{"servecache.insert_ms", "ms"},
		declared{"servecache.result_evictions", "count"}, declared{"servecache.dataset_evictions", "count"},
		declared{"servecache.resident_mib", "MiB"}, declared{"servecache.snapshots_written", "count"},
		declared{"serve.kernel_ms", "ms"}, declared{"serve.kernel_share", "ratio"},
		declared{"telemetry.admit_ms.p50", "ms"}, declared{"telemetry.admit_ms.p99", "ms"},
		declared{"telemetry.queue_ms", "ms"}, declared{"telemetry.finish_ms", "ms"}, declared{"telemetry.notify_ms", "ms"},
		declared{"telemetry.rejected", "count"}, declared{"telemetry.retries", "count"}, declared{"telemetry.journal_mib", "MiB"},
		declared{"bench.trace_overhead_ms", "ms"}, declared{"bench.trace_overhead_share", "ratio"},
	)
	for _, l := range layers {
		d = append(d, declared{"self_ms." + l, "ms"})
	}
	return d
}()

// layers are the modules spans are attributed to; bench is the
// benchmark's own time around them (sweep loops, client round trips).
var layers = []string{"bench", "fimi", "lcm", "eclat", "fpgrowth", "parallel", "partition", "servecache", "serve", "telemetry"}

// warmup is the length of the untimed window before measuring; mine
// workloads run at least one sweep however short it is.
const warmup = time.Second

// setupRepeats is how many times an untraced run sets up its workload;
// setup_s is the median.
const setupRepeats = 3

func main() {
	var (
		workload = flag.String("workload", "", "mine-inmem, mine-ooc or serve-cold")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 10, "measured time per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		workdir  = flag.String("workdir", ".bench_build/perfbench/work", "scratch directory for generated inputs and spans")
	)
	flag.Parse()
	setup, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload mine-inmem|mine-ooc|serve-cold --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(*workload, setup, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errChecks = errors.New("answer or self-check failed")

func run(name string, setup func(string, int64) (runner, error), seed int64, d time.Duration, traced bool, workdir string) error {
	if err := os.RemoveAll(workdir); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	r := newReport()
	var (
		w   runner
		out outcome
		err error
	)
	fmt.Printf("perfbench %s seed=%d seconds=%v trace=%v cpus=%d %s\n", name, seed, d.Seconds(), traced, runtime.NumCPU(), runtime.Version())

	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		// A set-up's files go when the next set-up replaces it, outside
		// both timers. Deleted this soon, serve-cold's inputs are never
		// written back to disk, and only the last set-up's are dirty in the
		// page cache while the window runs.
		if w != nil {
			if err := w.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(filepath.Join(workdir, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return err
			}
		}
		dir := filepath.Join(workdir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		w, err = setup(dir, seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	r.dist("setup_s", setups, "s", "generate and write inputs, start the instance, warm caches, build oracles")

	// One untimed warm-up window lets lazy runtime and cache set-up finish
	// before timing. It counts toward no metric, but a wrong answer in it
	// still fails the run.
	warm, err := w.window(warmup, newReport(), nil)
	if err != nil {
		return err
	}
	out.failures = warm.failures

	want := endToEnd
	if !traced {
		o, err := measured(w, d, r, nil)
		if err != nil {
			return err
		}
		out.merge(o)
	} else {
		// Untraced then traced halves of equal length: the difference is
		// the tracing overhead.
		plain := newReport()
		o1, err := measured(w, d/2, plain, nil)
		if err != nil {
			return err
		}
		tr := &tracer{}
		o2, err := measured(w, d/2, r, tr)
		if err != nil {
			return err
		}
		out.merge(o1)
		out.merge(o2)
		p0, _ := plain.get("latency_p50_ms")
		p1, _ := r.get("latency_p50_ms")
		r.add("bench.trace_overhead_ms", p1.Value-p0.Value, "ms", p1.N, "traced − untraced latency_p50_ms")
		share := 0.0
		if p0.Value > 0 {
			share = (p1.Value - p0.Value) / p0.Value
		}
		r.add("bench.trace_overhead_share", share, "ratio", p1.N, "trace overhead / untraced latency_p50_ms")
		ops := 0 // traced operations: sweeps, or sampled jobs
		for _, s := range tr.spans {
			if s.Parent == 0 {
				ops++
			}
		}
		self := selfTimes(tr.spans)
		for _, l := range layers {
			v := 0.0
			if ops > 0 {
				v = ms(self[l]) / float64(ops)
			}
			r.add("self_ms."+l, v, "ms", ops, "layer self time per traced operation")
		}
		path := filepath.Join(filepath.Dir(workdir), fmt.Sprintf("spans-%s-%d.json", name, seed))
		if err := writeChrome(path, tr.spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		want = perLayer
	}
	// Metrics of layers the workload does not exercise read 0.
	for _, m := range want {
		if _, ok := r.get(m.name); !ok {
			r.add(m.name, 0, m.unit, 0, "n/a: layer not exercised by "+name)
		}
	}
	failedShare := 0.0
	if out.attempted > 0 {
		failedShare = float64(out.failed) / float64(out.attempted)
	}
	r.add("failed_share", failedShare, "ratio", out.attempted, "(failed + rejected + transport errors + wrong answers) / attempted")
	r.writeTable(os.Stdout)
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "FAIL answer:", f)
	}
	for _, f := range out.checks {
		fmt.Fprintln(os.Stderr, "FAIL self-check:", f)
	}
	correct := len(out.failures) == 0 && len(out.checks) == 0
	line, err := resultLine(r, want, correct, out.attempted, out.failed)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return errChecks
	}
	return nil
}

// measured runs one window while sampling the live heap every few
// milliseconds. live_heap_mib is the mean of those samples, the heap the
// window holds on average. Neither the maximum nor a high percentile is
// steady here: the live heap is only measured at garbage collections, so
// the maximum hinges on whether a collection fell on the largest
// transient (it spread 23% across seeds on mine-inmem), and the p95 jumps
// between plateaus of the heap (10.1 or 11.7 MiB on mine-ooc).
func measured(w runner, d time.Duration, r *report, tr *tracer) (outcome, error) {
	hs := startHeapSampler()
	out, err := w.window(d, r, tr)
	live := hs.stop()
	mean := 0.0
	for _, v := range live {
		mean += v / float64(len(live))
	}
	r.add("live_heap_mib", mean, "MiB", len(live), "mean of /gc/heap/live:bytes sampled every 5 ms")
	return out, err
}

// heapSampler reads the live heap every few milliseconds until stopped.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	live []float64 // MiB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.live = append(h.live, float64(s[0].Value.Uint64())/mib)
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the samples.
func (h *heapSampler) stop() []float64 {
	close(h.done)
	h.wg.Wait()
	return h.live
}
