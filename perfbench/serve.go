package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fpm"
	"fpm/internal/loadgen"
	"fpm/internal/serve"
	"fpm/internal/telemetry"
)

// newClient is a loadgen client holding at most conns connections.
func newClient(base string, conns int) *loadgen.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &loadgen.Client{Base: base, HC: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// waitTerminal polls a job until it is done, failed or cancelled. The
// poll lag only delays when the client learns of the end; job latency is
// read from the server's own terminal stamp.
func waitTerminal(c *loadgen.Client, id int) (telemetry.Job, error) {
	const pollMax = 10 * time.Millisecond
	interval := 100 * time.Microsecond
	for {
		job, err := c.Job(context.Background(), id)
		if err != nil {
			return job, err
		}
		switch job.State {
		case "done", "failed", "cancelled":
			return job, nil
		}
		time.Sleep(interval)
		if interval *= 2; interval > pollMax {
			interval = pollMax
		}
	}
}

// events fetches a job's flight-recorder timeline.
func events(c *loadgen.Client, id int) (telemetry.EventLog, error) {
	var log telemetry.EventLog
	resp, err := c.HC.Get(fmt.Sprintf("%s/jobs/%d/events", c.Base, id))
	if err != nil {
		return log, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return log, fmt.Errorf("GET /jobs/%d/events: %s", id, resp.Status)
	}
	return log, json.NewDecoder(resp.Body).Decode(&log)
}

// jobSample is one job as the client saw it.
type jobSample struct {
	done     bool // reached "done" with the oracle's itemset count
	failed   bool // failed, cancelled, transport error or wrong answer
	rejected bool
	latency  time.Duration // send → server terminal stamp
	admit    time.Duration // POST /jobs round trip
	notify   time.Duration // server terminal stamp → client observed it
	job      telemetry.Job
	traced   bool
	phases   []phase // the traced job's timeline; nil if it was incomplete
	err      error
}

// serveCold is the serve-cold workload: an in-process serve.Instance on
// loopback HTTP and the generated files it answers for, each submitted
// once, in order.
type serveCold struct {
	inst     *serve.Instance
	c        *loadgen.Client
	conns    int
	limit    time.Duration // a job slower than this does not count as goodput
	files    []coldFile
	next     int
	stateDir string
}

type coldFile struct {
	path    string
	support int
	want    int
}

func startInstance(cfg serve.Config) (*serve.Instance, string, error) {
	inst := serve.NewInstance(cfg)
	addr, err := inst.Server.Start("127.0.0.1:0")
	if err != nil {
		inst.Close(context.Background())
		return nil, "", err
	}
	return inst, "http://" + addr.String(), nil
}

func setupServeCold(dir string, seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &serveCold{conns: runtime.NumCPU(), limit: 2 * time.Second, stateDir: filepath.Join(dir, "state")}
	// K = 4 bases, three at the loadgen small size and one at the medium
	// size, each with coldCopies transaction-shuffled copies: the same
	// listing under a new input identity. Small jobs are three in four, so
	// the median job is a small one, where parse and the cache write side
	// weigh most; an even mix would put the median on the edge between
	// the two job sizes.
	for b, p := range []preset{smallPreset, smallPreset, smallPreset, mediumPreset} {
		db := permute(p.gen(), rng, true)
		sets, err := fpm.Mine(db, fpm.LCM, 0, p.support)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := fpm.WriteFIMI(&buf, db); err != nil {
			return nil, err
		}
		paths, err := writeShuffledCopies(dir, fmt.Sprintf("%s-%d", p.name, b), buf.Bytes(), coldCopies, rng)
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			w.files = append(w.files, coldFile{path: path, support: p.support, want: len(sets)})
		}
	}
	// Interleave the bases so small and medium jobs alternate, in an
	// order fixed by the seed.
	rng.Shuffle(len(w.files), func(i, j int) { w.files[i], w.files[j] = w.files[j], w.files[i] })
	inst, base, err := startInstance(serve.Config{
		MaxConcurrent:     runtime.GOMAXPROCS(0),
		StateDir:          w.stateDir,
		DatasetCacheBytes: 2 << 20,
		ResultCacheBytes:  1 << 20,
	})
	if err != nil {
		return nil, err
	}
	if inst.DurabilityErr != nil {
		inst.Close(context.Background())
		return nil, inst.DurabilityErr
	}
	w.inst, w.c = inst, newClient(base, w.conns)
	return w, nil
}

// coldCopies is the number of shuffled copies per serve-cold base. With
// 4 bases it bounds a run at 4×(coldCopies+1) jobs, about 1.7 times what a
// 2-CPU machine serves (~110 jobs/s) in a 25 s window plus the warm-up.
// The inputs take about 230 MB. The window must end within 30 s of the
// set-up that wrote them, before the kernel's default dirty-page expiry
// writes them back: a longer window puts that writeback inside the timed
// window and slows the runs after it.
const coldCopies = 1224

func (w *serveCold) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.inst.Close(ctx)
	w.c.HC.CloseIdleConnections()
	return err
}

// do submits one job, waits for its end and checks its answer. With a
// tracer it also fetches the job's flight-recorder timeline and turns it
// into spans.
func (w *serveCold) do(req telemetry.JobRequest, want int, tr *tracer) jobSample {
	var s jobSample
	send := time.Now()
	job, status, err := w.c.Submit(context.Background(), req)
	posted := time.Now()
	s.admit = posted.Sub(send)
	switch {
	case err != nil:
		s.failed, s.err = true, err
		return s
	case status != http.StatusAccepted:
		s.rejected = true
		return s
	}
	job, err = waitTerminal(w.c, job.ID)
	seen := time.Now()
	s.job = job
	if err != nil {
		s.failed, s.err = true, err
		return s
	}
	s.latency = job.Finished.Sub(send)
	s.notify = seen.Sub(job.Finished)
	if job.State != "done" || job.Itemsets != want {
		s.failed = true
		s.err = fmt.Errorf("job %d (%s %s@%d): state %s %q, %d itemsets, oracle %d",
			job.ID, req.Algo, filepath.Base(req.Path), req.MinSupport, job.State, job.Error, job.Itemsets, want)
		return s
	}
	s.done = true
	if tr == nil {
		return s
	}
	log, err := events(w.c, job.ID)
	if err != nil {
		s.failed, s.done, s.err = true, false, err
		return s
	}
	s.traced = true
	s.phases = jobPhases(log.Events, req.Algo)
	key := strconv.Itoa(job.ID)
	root := tr.id()
	tr.add(root, "POST /jobs", "telemetry", key, send, posted)
	fetch := tr.add(root, "job fetch", "telemetry", key, posted, seen)
	run := fetch
	for _, p := range s.phases {
		parent := fetch
		if p.inRun {
			parent = run
		}
		if id := tr.add(parent, p.name, p.layer, key, p.start, p.end); p.name == "run" {
			run = id
		}
	}
	tr.record(span{ID: root, Name: "job", Layer: "bench", Key: key, Start: send, End: seen})
	return s
}

// phase is one interval of a job's flight-recorder timeline, attributed
// to the layer that owns it.
type phase struct {
	name, layer string
	inRun       bool // inside the run phase, rather than beside it
	start, end  time.Time
}

// jobPhases reads a done job's timeline (event types as documented on
// telemetry.Event): queue and run, and within run the dataset acquire,
// the kernel, the result insert and the finish. It returns nil when
// submitted, running or terminal is missing.
func jobPhases(evs []telemetry.Event, algo string) []phase {
	ts := map[string]time.Time{}
	var last time.Time // the last event before terminal
	for _, ev := range evs {
		typ := ev.Type
		if typ == "result_cache" && ev.Outcome == "store" {
			typ = "result_store"
		}
		if _, seen := ts[typ]; !seen {
			ts[typ] = ev.TS
		}
		if typ != "terminal" {
			last = ev.TS
		}
	}
	sub, run, term := ts["submitted"], ts["running"], ts["terminal"]
	if sub.IsZero() || run.IsZero() || term.IsZero() {
		return nil
	}
	out := []phase{{"queue", "telemetry", false, sub, run}, {"run", "serve", false, run, term}}
	between := func(name, layer, from, to string) {
		a, okA := ts[from]
		b, okB := ts[to]
		if okA && okB {
			out = append(out, phase{name, layer, true, a, b})
		}
	}
	between("dataset acquire", "servecache", "running", "dataset_cache")
	between("kernel", algo, "mine_start", "mine_end")
	between("result insert", "servecache", "mine_end", "result_store")
	return append(out, phase{"finish", "telemetry", true, last, term})
}

// cacheCounts are the cache and persister counters a window diffs.
type cacheCounts struct {
	resultExact, resultSubsumed, resultEvict uint64
	datasetHit, datasetEvict                 uint64
	snapshots                                uint64
}

func (w *serveCold) counts() cacheCounts {
	st := w.inst.Caches.Stats()
	c := cacheCounts{
		resultExact: st.Result.HitsExact, resultSubsumed: st.Result.HitsSubsumed,
		resultEvict: st.Result.Evictions,
		datasetHit:  st.Dataset.Hits, datasetEvict: st.Dataset.Evictions,
	}
	if w.inst.Persister != nil {
		c.snapshots = w.inst.Persister.Stats().Writes
	}
	return c
}

func (w *serveCold) window(d time.Duration, r *report, tr *tracer) (outcome, error) {
	before := w.counts()
	start := time.Now()
	samples := w.closedLoop(start, d, tr)
	elapsed := time.Since(start)
	after := w.counts()

	var out outcome
	var lat, admit, notify []float64
	byPhase := map[string][]float64{} // ms per traced job
	var kernelSum, runSum time.Duration
	good, rejected, retries := 0, 0, 0
	for _, s := range samples {
		out.attempted++
		admit = append(admit, ms(s.admit))
		if s.rejected {
			rejected++
			out.failed++
			continue
		}
		if s.failed {
			out.failed++
			out.fail(s.err)
			continue
		}
		retries += s.job.Retries
		lat = append(lat, ms(s.latency))
		notify = append(notify, ms(s.notify))
		if s.latency <= w.limit {
			good++
		}
		if s.traced && s.phases == nil {
			out.check(fmt.Errorf("job %d: incomplete timeline", s.job.ID))
		}
		for _, p := range s.phases {
			d := p.end.Sub(p.start)
			byPhase[p.name] = append(byPhase[p.name], ms(d))
			switch p.name {
			case "run":
				runSum += d
			case "kernel":
				kernelSum += d
			}
		}
	}
	done := len(lat)

	r.dist("latency_p50_ms", lat, "ms", "job send → server terminal stamp")
	r.tailOf("latency_tail_ms", lat, "ms")
	r.add("goodput_ops_s", float64(good)/elapsed.Seconds(), "ops/s", out.attempted,
		fmt.Sprintf("correct jobs within %v per second", w.limit))

	r.add("servecache.result_evictions", float64(after.resultEvict-before.resultEvict), "count", done, "in the window")
	r.add("servecache.dataset_evictions", float64(after.datasetEvict-before.datasetEvict), "count", done, "in the window")
	r.add("servecache.resident_mib", float64(w.inst.Caches.Resident())/mib, "MiB", 1, "both caches, end of window")
	r.add("servecache.snapshots_written", float64(after.snapshots-before.snapshots), "count", 1, "result-cache snapshots in the window")
	r.dist("telemetry.admit_ms.p50", admit, "ms", "client-timed POST /jobs round trip")
	r.add("telemetry.admit_ms.p99", percentile(admit, 99), "ms", len(admit), "client-timed POST /jobs round trip")
	r.dist("telemetry.notify_ms", notify, "ms", "server terminal stamp → client saw it")
	r.add("telemetry.rejected", float64(rejected), "count", out.attempted, "429/503 answers")
	r.add("telemetry.retries", float64(retries), "count", done, "mine retries")
	r.add("telemetry.journal_mib", journalMiB(w.stateDir), "MiB", 1, "job journal size, end of window")
	if tr != nil {
		r.dist("telemetry.queue_ms", byPhase["queue"], "ms", "submitted → running")
		r.dist("telemetry.finish_ms", byPhase["finish"], "ms", "last serve event → terminal")
		r.dist("servecache.acquire_ms", byPhase["dataset acquire"], "ms", "running → dataset-cache miss")
		r.dist("servecache.insert_ms", byPhase["result insert"], "ms", "mine_end → result-cache store")
		r.dist("serve.kernel_ms", byPhase["kernel"], "ms", "mine_start → mine_end")
		ks := 0.0
		if runSum > 0 {
			ks = float64(kernelSum) / float64(runSum)
		}
		r.add("serve.kernel_share", ks, "ratio", len(byPhase["kernel"]), "kernel time / running → terminal time")
	}

	// Self-checks: the workload measures the write side it is named for.
	if n := after.resultExact - before.resultExact + after.resultSubsumed - before.resultSubsumed; n != 0 {
		out.check(fmt.Errorf("serve-cold: %d result-cache hits", n))
	}
	if n := after.datasetHit - before.datasetHit; n != 0 {
		out.check(fmt.Errorf("serve-cold: %d dataset-cache hits", n))
	}
	if after.resultEvict == before.resultEvict || after.datasetEvict == before.datasetEvict {
		out.check(fmt.Errorf("serve-cold: caches did not both evict (result %d, dataset %d)",
			after.resultEvict-before.resultEvict, after.datasetEvict-before.datasetEvict))
	}
	if w.next >= len(w.files) {
		out.check(fmt.Errorf("serve-cold: ran out of input files before the window ended"))
	}
	return out, nil
}

func journalMiB(stateDir string) float64 {
	if stateDir == "" {
		return 0
	}
	paths, _ := filepath.Glob(filepath.Join(stateDir, "jobs.journal.*"))
	var n int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return float64(n) / mib
}

// closedLoop runs w.conns clients for d, each submitting the
// next unused file and waiting for its answer before the next.
func (w *serveCold) closedLoop(start time.Time, d time.Duration, tr *tracer) []jobSample {
	var mu sync.Mutex
	var samples []jobSample
	var wg sync.WaitGroup
	for g := 0; g < w.conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				if w.next >= len(w.files) {
					mu.Unlock()
					return
				}
				i := w.next
				w.next++
				mu.Unlock()
				f := w.files[i]
				req := telemetry.JobRequest{Path: f.path, Algo: string(kernels[i%len(kernels)]), MinSupport: f.support, Workers: 1}
				s := w.do(req, f.want, tr)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}
