package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fpm/internal/metrics"
	"fpm/internal/telemetry"
)

// The acceptance bound for learned admission: after enough observations
// the admitted estimate must sit within 25% of the job's measured peak.
const convergenceTolerance = 0.25

// TestFootprintLearnerConvergence is the repeated-identity convergence
// test: a miner with a deterministic footprint (a held 12 MiB buffer, so
// GC noise cannot dominate) runs the same (path, algo) job repeatedly
// through a store wired exactly like NewInstance wires the learner. The
// first run must be admitted on the static heuristic; after three
// observations the admitted estimate must land within 25% of the measured
// peak_bytes — while the 3×-file-size heuristic for this tiny file is the
// 1 MiB floor, an order of magnitude off.
func TestFootprintLearnerConvergence(t *testing.T) {
	path := testDataset(t, 50, 11)
	const alloc = 12 << 20
	mine := func(context.Context, telemetry.JobRequest, *metrics.Recorder) (telemetry.MineResult, error) {
		buf := make([]byte, alloc)
		for i := 0; i < len(buf); i += 4096 {
			buf[i] = 1
		}
		// Hold the buffer across several 25ms sampler ticks: an instant
		// return can race the boundary heap read against the runtime's
		// per-P stat flush and measure ~0.
		time.Sleep(80 * time.Millisecond)
		runtime.KeepAlive(buf)
		return telemetry.MineResult{Itemsets: 1}, nil
	}
	learner := NewFootprintLearner()
	st := telemetry.NewStore(mine, nil, telemetry.StoreConfig{
		QueueCap: 8, MaxConcurrent: 1, MemBudget: 1 << 30,
		Footprint:        learner.footprint,
		ObserveFootprint: learner.observe,
	})
	defer st.Close()

	req := telemetry.JobRequest{Path: path, Algo: "lcm", MinSupport: 5}
	runOne := func() telemetry.Job {
		t.Helper()
		// Clean base: without this, garbage from the previous run's buffer
		// can be collected mid-run, dragging live-heap below the job's
		// starting point and collapsing the measured delta to zero.
		runtime.GC()
		job, err := st.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		j := waitTerminal(t, st, job.ID)
		if j.State != "done" {
			t.Fatalf("job ended %s: %s", j.State, j.Error)
		}
		return j
	}

	first := runOne()
	if want := EstimateFootprint(req); first.MemEstimate != want {
		t.Fatalf("cold job admitted with estimate %d, want heuristic %d", first.MemEstimate, want)
	}
	if s := st.Stats(); s.FootprintHeuristic != 1 || s.FootprintLearned != 0 {
		t.Fatalf("cold split = learned %d / heuristic %d", s.FootprintLearned, s.FootprintHeuristic)
	}
	if first.PeakBytes < alloc/2 {
		t.Fatalf("measured peak %d implausible for a held %d-byte buffer", first.PeakBytes, alloc)
	}

	for learner.Observations(path, "lcm") < 3 {
		runOne()
	}
	converged := runOne()
	for attempt := 0; converged.PeakBytes < alloc/2 && attempt < 5; attempt++ {
		// A GC completing between mine-end and the boundary heap read can
		// still zero out one sample; the workload is deterministic, so just
		// take another.
		converged = runOne()
	}
	if converged.PeakBytes < alloc/2 {
		t.Fatalf("measured peak stuck at %d for a held %d-byte buffer", converged.PeakBytes, alloc)
	}
	if s := st.Stats(); s.FootprintLearned == 0 {
		t.Fatalf("no admission used a learned estimate: %+v", s)
	}
	if converged.MemEstimate == EstimateFootprint(req) {
		t.Fatalf("converged job still admitted on the heuristic (%d)", converged.MemEstimate)
	}
	rel := math.Abs(float64(converged.MemEstimate)-float64(converged.PeakBytes)) / float64(converged.PeakBytes)
	t.Logf("heuristic %d B; after %d obs: admitted %d B vs measured peak %d B (off %.1f%%)",
		EstimateFootprint(req), learner.Observations(path, "lcm"), converged.MemEstimate, converged.PeakBytes, rel*100)
	if rel > convergenceTolerance {
		t.Fatalf("after %d observations: admitted estimate %d vs measured peak %d (off by %.0f%%, want <= %.0f%%)",
			learner.Observations(path, "lcm"), converged.MemEstimate, converged.PeakBytes,
			rel*100, convergenceTolerance*100)
	}
}

// Partitioned jobs must never be admitted on (or feed) the learner: their
// footprint is bounded by their own budget.
func TestFootprintLearnerSkipsPartitioned(t *testing.T) {
	path := testDataset(t, 50, 12)
	l := NewFootprintLearner()
	l.Observe(path, "eclat", 64<<20)
	req := telemetry.JobRequest{Path: path, Algo: "eclat", MinSupport: 5, MemBudget: 4 << 20}
	if est, learned := l.footprint(req); learned || est != 2*req.MemBudget {
		t.Fatalf("partitioned job: estimate %d learned=%v, want heuristic %d", est, learned, 2*req.MemBudget)
	}
	l.observe(req, 96<<20)
	if n := l.Observations(path, "eclat"); n != 1 {
		t.Fatalf("partitioned observe leaked into the stream: obs = %d, want 1", n)
	}
	// The same file mined in-memory does use the learned stream.
	inMem := telemetry.JobRequest{Path: path, Algo: "eclat", MinSupport: 5}
	seen := int64(64 << 20)
	wantEst := int64(float64(seen) * learnerMargin)
	if est, learned := l.footprint(inMem); !learned || est != wantEst {
		t.Fatalf("in-memory repeat: estimate %d learned=%v", est, learned)
	}
}

// A changed file (same path, new content) must invalidate the learned
// stream: identity is content-based, exactly like the serving caches.
func TestFootprintLearnerTracksIdentity(t *testing.T) {
	path := testDataset(t, 50, 13)
	l := NewFootprintLearner()
	l.Observe(path, "lcm", 32<<20)
	if _, ok := l.Estimate(path, "lcm"); !ok {
		t.Fatal("no learned estimate after an observation")
	}
	// Rewrite the file in place with different content.
	if err := writeDifferentDataset(path); err != nil {
		t.Fatal(err)
	}
	if est, ok := l.Estimate(path, "lcm"); ok {
		t.Fatalf("stale learned estimate %d served for rewritten file", est)
	}
}

// The full serve wiring end to end: NewInstance admits repeat identities
// on measured cost and the flight recorder captures the serve-path cache
// events. The result cache stays on, so the repeat run also exercises the
// cache-served timeline.
func TestServeLearnedAdmissionAndEvents(t *testing.T) {
	path := testDataset(t, 200, 14)
	inst := NewInstance(Config{MaxConcurrent: 1, MemBudget: 1 << 30})
	defer inst.Store.Close()
	req := telemetry.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1}

	job1, err := inst.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j1 := waitTerminal(t, inst.Store, job1.ID)
	if j1.State != "done" {
		t.Fatalf("first job ended %s: %s", j1.State, j1.Error)
	}
	log1, _ := inst.Store.Events(job1.ID)
	if !hasEvent(log1, "dataset_cache", "miss") || !hasEvent(log1, "mine_start", "") ||
		!hasEvent(log1, "mine_end", "") || !hasEvent(log1, "result_cache", "store") {
		t.Fatalf("first-run timeline missing serve events: %+v", log1.Events)
	}

	job2, err := inst.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2 := waitTerminal(t, inst.Store, job2.ID)
	if !j2.ServedFromCache {
		t.Fatalf("repeat job not served from the result cache: %+v", j2)
	}
	log2, _ := inst.Store.Events(job2.ID)
	if !hasEvent(log2, "result_cache", "hit") {
		t.Fatalf("cache-served timeline missing result_cache hit: %+v", log2.Events)
	}
	// The first run's measured peak must now drive admission for repeats
	// (cache-served runs don't feed the learner, but they are admitted on
	// the learned estimate).
	if inst.Learner.Observations(path, "lcm") != 1 {
		t.Fatalf("observations = %d, want 1", inst.Learner.Observations(path, "lcm"))
	}
	if j2.MemEstimate == EstimateFootprint(req) && j1.PeakBytes > 0 {
		est, learned := inst.Learner.footprint(req)
		if learned && est != j2.MemEstimate {
			t.Fatalf("repeat admitted on %d, learner offers %d", j2.MemEstimate, est)
		}
	}
	if s := inst.Store.Stats(); s.FootprintLearned == 0 {
		t.Fatalf("no learned admission recorded: %+v", s)
	}
}

// TestServeEventLogNDJSON: Config.EventLog receives one JSON object per
// line, in emission order, carrying the same events the per-job ring
// retains — the `fpm serve -log-json` wire format.
func TestServeEventLogNDJSON(t *testing.T) {
	path := testDataset(t, 100, 15)
	var buf syncBuffer
	inst := NewInstance(Config{MaxConcurrent: 1, EventLog: &buf})
	req := telemetry.JobRequest{Path: path, Algo: "lcm", MinSupport: 5, Workers: 1}
	job, err := inst.Store.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, inst.Store, job.ID)
	inst.Store.Close()

	var types []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line is not one JSON event: %v\n%s", err, line)
		}
		if ev.Job != job.ID {
			t.Fatalf("event for job %d in a single-job run: %s", ev.Job, line)
		}
		types = append(types, ev.Type)
	}
	if types[0] != "submitted" || types[len(types)-1] != "terminal" {
		t.Fatalf("stream must run submitted..terminal: %v", types)
	}
	ring, _ := inst.Store.Events(job.ID)
	if len(types) != len(ring.Events) {
		t.Fatalf("stream carried %d events, ring retained %d", len(types), len(ring.Events))
	}
}

// syncBuffer guards a bytes.Buffer; the event sink writes from runner
// goroutines while the test reads after Close.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// writeDifferentDataset replaces path with content of a different size,
// so the learner's stat-based identity memo invalidates regardless of
// filesystem mtime granularity.
func writeDifferentDataset(path string) error {
	var b []byte
	for i := 0; i < 100; i++ {
		b = append(b, []byte("1 2 3 4 5 6 7\n")...)
	}
	return os.WriteFile(path, b, 0o644)
}

func hasEvent(log telemetry.EventLog, typ, outcome string) bool {
	for _, ev := range log.Events {
		if ev.Type == typ && (outcome == "" || ev.Outcome == outcome) {
			return true
		}
	}
	return false
}
