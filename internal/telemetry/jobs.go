package telemetry

import (
	"context"
	"errors"
	"math/rand"
	runtimemetrics "runtime/metrics"
	"sync"
	"time"

	"fpm/internal/failpoint"
	"fpm/internal/hdr"
	"fpm/internal/metrics"
)

// JobRequest describes one mining job submitted to `fpm serve`.
type JobRequest struct {
	// Path is the FIMI file to mine; the file must be readable by the
	// serving process.
	Path string `json:"path"`
	// Algo is the kernel name ("lcm", "eclat", "fpgrowth", "apriori",
	// "hmine", "tidset", "diffset").
	Algo string `json:"algo"`
	// Patterns is the tuning-pattern list ("lex,simd", "all", "none");
	// empty means all applicable patterns.
	Patterns   string `json:"patterns,omitempty"`
	MinSupport int    `json:"min_support"`
	// Workers selects mining parallelism as in the CLI: 1 sequential,
	// 0 GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// MemBudget, when positive, mines out-of-core through the partitioned
	// two-pass path with this resident-memory budget in bytes.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// TimeoutMS, when positive, bounds the job's mining wall time in
	// milliseconds; an overrunning job is cancelled cooperatively and
	// finishes "failed" with a deadline error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Job is one submission's lifecycle record.
type Job struct {
	ID      int        `json:"id"`
	Request JobRequest `json:"request"`
	// State is "queued", "running", "done", "failed", "cancelled" or
	// "requeued" ("requeued" only appears when a journal is configured:
	// a graceful shutdown drained the job with the intent that the next
	// boot resubmits it).
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Itemsets  int       `json:"itemsets"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Recovered marks a job resubmitted from the journal after a restart:
	// its original submission lived in a previous process.
	Recovered bool `json:"recovered,omitempty"`
	// Retries counts mine attempts beyond the first (transient failures
	// retried with backoff under StoreConfig.MaxRetries).
	Retries int `json:"retries,omitempty"`
	// ServedFromCache marks a job answered from the result cache: the
	// mine time (Finished - Started) is then the cache lookup, not a
	// mining run — load harnesses split their latency attribution on it.
	ServedFromCache bool `json:"served_from_cache,omitempty"`
	// MemEstimate is the footprint estimate the admission controller
	// charged against the memory budget while the job ran.
	MemEstimate int64 `json:"mem_estimate,omitempty"`
	// PeakBytes is the job's measured peak live-heap growth while it ran:
	// the maximum of the process heap observed at the mine boundaries and
	// by the in-flight sampler, minus the heap at mine start. With
	// concurrent runners the whole process delta is attributed to each
	// running job, so it is an upper bound — the conservative direction
	// for feeding admission. Zero until the job ends (and for cache-served
	// answers, which allocate nothing worth learning from).
	PeakBytes int64 `json:"peak_bytes,omitempty"`
	// EstimateRatio is PeakBytes / MemEstimate — below 1 the admission
	// estimate over-charged the budget (jobs queued that could have run),
	// above 1 it under-charged (the budget did not protect the process).
	EstimateRatio float64 `json:"estimate_ratio,omitempty"`
	// Stats is the run's final counter snapshot (nil until the job ends).
	Stats *metrics.Snapshot `json:"stats,omitempty"`

	// cancel aborts the run in flight; set only while State == "running".
	cancel context.CancelFunc
	// events is the job's flight recorder (see Event); guarded by the
	// store's mutex and excluded from the JSON record — GET
	// /jobs/{id}/events serves it.
	events *eventRing
	// heapBase/heapPeak carry the sampler's live-heap observations while
	// the job runs: base is the heap at mine start, peak the largest heap
	// seen since. Guarded by the store's mutex.
	heapBase int64
	heapPeak int64
}

// MineResult is what a MineFunc reports for a finished job.
type MineResult struct {
	// Itemsets is the frequent-itemset count of the answer.
	Itemsets int
	// FromCache marks an answer served from the result cache without
	// mining; the store surfaces it as Job.ServedFromCache.
	FromCache bool
}

// MineFunc executes one job, recording into rec, and returns the job's
// result. ctx carries the job's cancellation and deadline; implementations
// thread it into the mining run so DELETE /jobs/{id}, per-job timeouts and
// server shutdown all unwind the kernels cooperatively. Injected so the
// store stays free of the driver's import graph (the root fpm package
// wires the real miner in internal/serve).
type MineFunc func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error)

// FootprintFunc estimates a job's peak resident footprint in bytes, for
// admission control against StoreConfig.MemBudget. Estimates are
// deliberately conservative: over-estimating delays a job, while
// under-estimating OOMs the process. learned reports whether the estimate
// came from observed footprints of earlier runs rather than a static
// heuristic — the store counts the split (StoreStats.FootprintLearned /
// FootprintHeuristic) so the learning loop's coverage is visible on
// /metrics.
type FootprintFunc func(req JobRequest) (est int64, learned bool)

// ErrQueueFull is returned by Submit when the job queue has no room.
var ErrQueueFull = errors.New("telemetry: job queue full")

// ErrClosed is returned by Submit after Close or Shutdown.
var ErrClosed = errors.New("telemetry: job store closed")

// Store queues submitted jobs and runs them on a fixed pool of runner
// goroutines under memory-budget admission control. Jobs are admitted in
// strict FIFO order: the head of the queue runs as soon as a runner is
// free AND its estimated footprint fits under the memory budget
// (alongside everything already running and the bytes the serving caches
// hold). A head job that does not fit first asks the caches to shed cold
// bytes, then waits for running jobs to finish — it blocks the jobs
// behind it (head-of-line) rather than being bypassed, which keeps
// admission starvation-free: no stream of small jobs can park a big one
// forever. A job bigger than the whole budget still runs, alone, when
// nothing else is in flight — admission degrades to serialization, never
// to deadlock.
type Store struct {
	mine MineFunc
	// onStart receives each job's fresh recorder just before mining, so
	// the server's scrape endpoints follow a run in flight (with
	// concurrent runners, the most recently started one).
	onStart func(*metrics.Recorder)

	footprint     FootprintFunc
	cacheResident func() int64
	shed          func(need int64) int64
	memBudget     int64

	journal    *Journal
	maxRetries int
	retryBase  time.Duration
	retryMax   time.Duration

	mu   sync.Mutex
	cond *sync.Cond
	// jobs is indexed by job id; the slot of a terminal job evicted from
	// retired is nil.
	jobs []*Job
	// retired holds the ids of the retained terminal jobs, oldest first;
	// at most retainTerminal of them.
	retired []int
	pending []int // queued job ids, FIFO
	memUsed int64 // admission reservations of running jobs
	// admitted counts jobs popped by next() whose run() has not yet
	// finished. It is what admission waits on: unlike stats.Running
	// (incremented only once run() re-locks), it is bumped in the same
	// critical section that pops the queue, so two runners can never both
	// observe "nothing in flight" and force-admit oversized jobs
	// concurrently.
	admitted int
	closed   bool // queue closed; no further submissions
	aborting bool // Shutdown in progress; queued jobs drain as cancelled
	stats    StoreStats

	// hists are the server-side latency and footprint histograms, one
	// Record per job at its terminal transition (including jobs cancelled
	// while queued, with zero mine time, so every family's count equals
	// jobs finished). Guarded by mu; Histograms() snapshots them.
	hists JobHists

	eventCap         int
	eventSink        func(Event)
	observeFootprint func(req JobRequest, peakBytes int64)

	// sampler lifecycle: started lazily by the first run() (stores that
	// never run a job never pay for the goroutine), joined by
	// Close/Shutdown after the runners drain.
	samplerOnce sync.Once
	samplerStop chan struct{}
	stopOnce    sync.Once
	samplerWG   sync.WaitGroup

	wg sync.WaitGroup // runner goroutines
}

// JobHists bundles the store's per-job histograms: queue wait
// (Started-Submitted), mine time (Finished-Started), end-to-end
// (Finished-Submitted) — all in nanoseconds — and measured peak footprint
// in bytes. Each is recorded exactly once per job at its terminal
// transition, so the families' counts stay equal.
type JobHists struct {
	QueueWait hdr.Hist
	Mine      hdr.Hist
	E2E       hdr.Hist
	Footprint hdr.Hist
}

// StoreStats is a consistent point-in-time view of the job store, for the
// /metrics gauges and for load harnesses watching backpressure. Queued,
// Running and MemUsed are instantaneous; the rest are cumulative since
// start.
type StoreStats struct {
	QueueCap      int    `json:"queue_cap"`
	MaxConcurrent int    `json:"max_concurrent"`
	MemBudget     int64  `json:"mem_budget,omitempty"`
	MemUsed       int64  `json:"mem_used"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	Submitted     uint64 `json:"submitted"`
	Rejected      uint64 `json:"rejected"`
	Done          uint64 `json:"done"`
	Failed        uint64 `json:"failed"`
	Cancelled     uint64 `json:"cancelled"`
	// CacheServed counts done jobs answered from the result cache.
	CacheServed uint64 `json:"cache_served"`
	// Shed counts the times admission asked the caches to shed cold bytes
	// on behalf of a memory-blocked head job.
	Shed uint64 `json:"shed"`
	// FootprintLearned / FootprintHeuristic split admitted jobs by where
	// their footprint estimate came from: observed earlier runs vs the
	// static heuristic (see FootprintFunc).
	FootprintLearned   uint64 `json:"footprint_learned"`
	FootprintHeuristic uint64 `json:"footprint_heuristic"`
	// Retried counts mine attempts retried after a transient failure;
	// Recovered counts jobs resubmitted from the journal at startup;
	// Requeued counts jobs a graceful shutdown drained as
	// requeue-on-restart instead of cancelling.
	Retried   uint64 `json:"retried"`
	Recovered uint64 `json:"recovered"`
	Requeued  uint64 `json:"requeued"`
}

// DefaultQueueCap bounds the pending-job queue when StoreConfig.QueueCap is 0.
const DefaultQueueCap = 64

// retainTerminal bounds how many finished (done, failed, cancelled or
// requeued) job records the store keeps: past it the oldest is evicted,
// so a long-running server's memory does not grow with the jobs it has
// served. Queued and running jobs are never evicted. Each record with its
// event ring costs a few KiB.
const retainTerminal = 256

// StoreConfig shapes a job store.
type StoreConfig struct {
	// QueueCap bounds the pending-job queue (minimum 1); submissions
	// beyond it are rejected with ErrQueueFull. 0 means DefaultQueueCap.
	QueueCap int
	// MaxConcurrent is the runner-goroutine count (minimum 1). Mining
	// parallelism inside a job (JobRequest.Workers) is independent.
	MaxConcurrent int
	// MemBudget, when positive, is the global memory budget in bytes that
	// admission control enforces: a job is admitted only when its
	// Footprint estimate fits alongside the running jobs' estimates plus
	// CacheResident(). 0 disables admission control.
	MemBudget int64
	// Footprint estimates a job's peak resident bytes; nil means 0 (every
	// job fits).
	Footprint FootprintFunc
	// CacheResident reports the bytes the serving caches currently hold,
	// so cached state and running jobs share one budget; nil means 0.
	CacheResident func() int64
	// Shed asks the caches to free up to need cold bytes and returns the
	// bytes freed; admission calls it before making the head job wait.
	// nil means nothing can be shed.
	Shed func(need int64) int64
	// EventCap bounds each job's flight-recorder ring (minimum 1); the
	// oldest events are dropped first and counted. 0 means
	// DefaultEventCap.
	EventCap int
	// EventSink, when non-nil, receives every recorded event as it is
	// appended — the hook `fpm serve -log-json` streams NDJSON through.
	// It runs under the store's lock: keep it fast, never call back into
	// the Store.
	EventSink func(Event)
	// ObserveFootprint, when non-nil, receives each mined job's request
	// and measured peak footprint after the job finishes "done" without
	// being served from the result cache — the feedback edge that lets a
	// learner turn Footprint estimates into measured costs. Called outside
	// the store's lock.
	ObserveFootprint func(req JobRequest, peakBytes int64)
	// Journal, when non-nil, receives one WAL record per job state
	// transition (submitted/running/terminal), making the store's queue
	// recoverable across restarts: see OpenJournal / PendingRequests. A
	// journal also changes Shutdown's drain semantics — queued jobs are
	// journaled as requeue-on-restart instead of cancelled, so a rolling
	// restart does not shed its backlog. The store appends but never
	// closes it; the owner does, after Shutdown returns.
	Journal *Journal
	// MaxRetries bounds transparent retries of a transiently failed mine
	// attempt (any error other than cancellation or deadline); 0 disables
	// retries. Retries stay inside the job's "running" state and are
	// visible as "retry" flight-recorder events and Job.Retries.
	MaxRetries int
	// RetryBaseDelay / RetryMaxDelay shape the capped exponential backoff
	// between attempts (full jitter in the upper half of the window).
	// Zero means DefaultRetryBaseDelay / DefaultRetryMaxDelay.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
}

// Default retry backoff shape: base 25ms doubling to a 1s cap keeps a
// two-retry policy well under any interactive timeout while spacing
// attempts enough for a transient I/O fault to clear.
const (
	DefaultRetryBaseDelay = 25 * time.Millisecond
	DefaultRetryMaxDelay  = time.Second
)

// NewStore starts the runner pool described by cfg; the zero StoreConfig
// is a single runner with the default queue cap. onStart may be nil.
func NewStore(mine MineFunc, onStart func(*metrics.Recorder), cfg StoreConfig) *Store {
	if cfg.QueueCap < 1 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.EventCap == 0 {
		cfg.EventCap = DefaultEventCap
	}
	if cfg.EventCap < 1 {
		cfg.EventCap = 1
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = DefaultRetryBaseDelay
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = DefaultRetryMaxDelay
	}
	if cfg.RetryMaxDelay < cfg.RetryBaseDelay {
		cfg.RetryMaxDelay = cfg.RetryBaseDelay
	}
	st := &Store{
		mine:             mine,
		onStart:          onStart,
		footprint:        cfg.Footprint,
		cacheResident:    cfg.CacheResident,
		shed:             cfg.Shed,
		memBudget:        cfg.MemBudget,
		journal:          cfg.Journal,
		maxRetries:       cfg.MaxRetries,
		retryBase:        cfg.RetryBaseDelay,
		retryMax:         cfg.RetryMaxDelay,
		eventCap:         cfg.EventCap,
		eventSink:        cfg.EventSink,
		observeFootprint: cfg.ObserveFootprint,
		samplerStop:      make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	st.stats.QueueCap = cfg.QueueCap
	st.stats.MaxConcurrent = cfg.MaxConcurrent
	st.stats.MemBudget = cfg.MemBudget
	st.wg.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go st.runner()
	}
	return st
}

// Stats returns the store's current depth gauges and cumulative counters.
// The snapshot is consistent: every submitted job is counted in exactly
// one of Queued, Running, Done, Failed or Cancelled.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.MemUsed = st.memUsed
	return s
}

// Close stops accepting jobs and waits for the queue to drain; jobs
// already queued still run to completion. Use Shutdown to abandon them
// instead.
func (st *Store) Close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.cond.Broadcast()
	st.wg.Wait()
	st.stopSampler()
}

// Shutdown stops accepting jobs, cancels the jobs in flight (if any),
// drains still-queued jobs without running them, and waits for the
// runner goroutines to exit. Without a journal, drained jobs are marked
// cancelled; with one they are journaled as requeue-on-restart (state
// "requeued") so the next boot resubmits them — a rolling restart keeps
// its backlog. Idempotent, and safe after Close.
func (st *Store) Shutdown() {
	st.mu.Lock()
	st.aborting = true
	st.closed = true
	var cancels []context.CancelFunc
	for _, j := range st.jobs {
		if j != nil && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	st.mu.Unlock()
	st.cond.Broadcast()
	for _, c := range cancels {
		c()
	}
	st.wg.Wait()
	st.stopSampler()
}

// stopSampler joins the peak-heap sampler if one was started. Runner
// goroutines are already drained when this runs, so the samplerOnce that
// could start one has fired (or never will).
func (st *Store) stopSampler() {
	st.stopOnce.Do(func() { close(st.samplerStop) })
	st.samplerWG.Wait()
}

// Submit enqueues a job and returns its record in the "queued" state.
// When the queue is at capacity the submission is rejected with
// ErrQueueFull and leaves no job record behind — a rejection storm must
// not grow the store's memory.
func (st *Store) Submit(req JobRequest) (Job, error) {
	return st.submit(req, false)
}

// SubmitRecovered enqueues a job replayed from the journal at startup.
// It is Submit with the recovery provenance attached: the job record
// (and its journal trail) carries recovered:true, and StoreStats.
// Recovered counts it — so a restarted server can report exactly what a
// crash (or a requeue-on-restart drain) handed back to it.
func (st *Store) SubmitRecovered(req JobRequest) (Job, error) {
	return st.submit(req, true)
}

func (st *Store) submit(req JobRequest, recovered bool) (Job, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return Job{}, ErrClosed
	}
	if len(st.pending) >= st.stats.QueueCap {
		st.stats.Rejected++
		st.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	job := &Job{ID: len(st.jobs), Request: req, State: "queued", Submitted: time.Now(),
		Recovered: recovered, events: newEventRing(st.eventCap)}
	st.jobs = append(st.jobs, job)
	st.pending = append(st.pending, job.ID)
	st.stats.Submitted++
	st.stats.Queued++
	if recovered {
		st.stats.Recovered++
		st.emitLocked(job, Event{Type: "submitted", Outcome: "recovered"})
	} else {
		st.emitLocked(job, Event{Type: "submitted"})
	}
	st.journal.Append(JournalRecord{Op: JournalOpSubmitted, Job: job.ID,
		TS: job.Submitted, Recovered: recovered, Req: &job.Request})
	snap := *job
	st.mu.Unlock()
	st.cond.Broadcast()
	return snap, nil
}

// Histograms returns a consistent snapshot of the per-job latency and
// footprint histograms, for the /metrics exporter and load harnesses.
func (st *Store) Histograms() JobHists {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.hists
}

// recordTerminalLocked folds a job reaching its final state into the
// histograms and emits the terminal flight-recorder event. Every job path
// out of the store — run to completion, cancelled while queued, drained
// by Shutdown — funnels through here exactly once. Jobs that never ran
// have no Started; their whole life was queue wait and their mine time is
// zero.
func (st *Store) recordTerminalLocked(job *Job) {
	started := job.Started
	if started.IsZero() {
		started = job.Finished
	}
	st.hists.QueueWait.Record(started.Sub(job.Submitted).Nanoseconds())
	st.hists.Mine.Record(job.Finished.Sub(started).Nanoseconds())
	st.hists.E2E.Record(job.Finished.Sub(job.Submitted).Nanoseconds())
	st.hists.Footprint.Record(job.PeakBytes)
	st.emitLocked(job, Event{Type: "terminal", State: job.State, Error: job.Error,
		Itemsets: job.Itemsets, PeakBytes: job.PeakBytes})
	op := JournalOpTerminal
	if job.State == "requeued" {
		op = JournalOpRequeue
	}
	st.journal.Append(JournalRecord{Op: op, Job: job.ID, TS: job.Finished, State: job.State})
	st.retired = append(st.retired, job.ID)
	if len(st.retired) > retainTerminal {
		st.jobs[st.retired[0]] = nil
		st.retired = st.retired[1:]
	}
}

// jobLocked returns the record of job id, or nil when the id was never
// issued or its record was evicted. Callers hold st.mu.
func (st *Store) jobLocked(id int) *Job {
	if id < 0 || id >= len(st.jobs) {
		return nil
	}
	return st.jobs[id]
}

// Evicted reports whether id was issued but its terminal record has since
// been dropped by the retention bound, as opposed to never issued.
func (st *Store) Evicted(id int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return id >= 0 && id < len(st.jobs) && st.jobs[id] == nil
}

// Get returns a copy of the job's current record. The bool is false for an
// id never issued or evicted (see Evicted).
func (st *Store) Get(id int) (Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	job := st.jobLocked(id)
	if job == nil {
		return Job{}, false
	}
	return *job, true
}

// List returns copies of every retained job record, oldest first: all
// queued and running jobs plus the most recent terminal ones.
func (st *Store) List() []Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Job, 0, len(st.pending)+st.stats.Running+len(st.retired))
	for _, j := range st.jobs {
		if j != nil {
			out = append(out, *j)
		}
	}
	return out
}

// Cancel aborts a job. A queued job flips to "cancelled" immediately and
// never runs; a running job has its context cancelled and reaches
// "cancelled" once the kernels unwind (the returned record may still say
// "running" — poll Get for the final state). Finished jobs are left
// untouched. The bool reports whether the id exists and is retained.
func (st *Store) Cancel(id int) (Job, bool) {
	st.mu.Lock()
	job := st.jobLocked(id)
	if job == nil {
		st.mu.Unlock()
		return Job{}, false
	}
	var cancelRunning context.CancelFunc
	switch job.State {
	case "queued":
		job.State = "cancelled"
		job.Error = context.Canceled.Error()
		job.Finished = time.Now()
		st.stats.Queued--
		st.stats.Cancelled++
		st.recordTerminalLocked(job)
	case "running":
		cancelRunning = job.cancel
	}
	snap := *job
	st.mu.Unlock()
	// A cancelled queued job may have been the memory-blocked head; wake
	// the runners so the next job gets its admission check.
	st.cond.Broadcast()
	if cancelRunning != nil {
		cancelRunning()
	}
	return snap, true
}

// runner is one worker of the pool: it claims admitted jobs until the
// store drains.
func (st *Store) runner() {
	defer st.wg.Done()
	for {
		id, est, ok := st.next()
		if !ok {
			return
		}
		st.run(id, est)
	}
}

// next blocks until the head of the queue is admitted to this runner (or
// the store drains; ok is then false). Admission claims est bytes of the
// memory budget; run releases them.
func (st *Store) next() (id int, est int64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		// Skip jobs cancelled while queued; under Shutdown, drain the
		// whole queue as cancelled without running anything.
		for len(st.pending) > 0 {
			// A job cancelled while queued stays in pending until popped
			// here, and its record may already be evicted.
			job := st.jobs[st.pending[0]]
			if job == nil || job.State != "queued" {
				st.pending = st.pending[1:]
				continue
			}
			if st.aborting {
				// With a journal, drained jobs are requeue-on-restart: the
				// next boot replays them, so a rolling restart keeps its
				// backlog. Without one there is no restart story, so the
				// pre-journal semantics hold: queued jobs are cancelled.
				if st.journal != nil {
					job.State = "requeued"
					job.Error = "shutdown: requeued for restart"
					st.stats.Requeued++
				} else {
					job.State = "cancelled"
					job.Error = context.Canceled.Error()
					st.stats.Cancelled++
				}
				job.Finished = time.Now()
				st.stats.Queued--
				st.recordTerminalLocked(job)
				st.pending = st.pending[1:]
				continue
			}
			break
		}
		if len(st.pending) == 0 {
			if st.closed {
				return 0, 0, false
			}
			st.cond.Wait()
			continue
		}

		id = st.pending[0]
		learned := false
		if st.footprint != nil {
			est, learned = st.footprint(st.jobs[id].Request)
		}
		if deficit := st.overBudgetLocked(est); deficit > 0 {
			// Head does not fit. First ask the caches for cold bytes
			// (outside the lock: shed takes the cache locks), then — if
			// nothing is admitted that could free budget by finishing —
			// force-admit rather than deadlock on an oversized job.
			if job := st.jobs[id]; job.events.lastType() != "admission_held" {
				// Collapse the wake/re-park churn of a blocked head into
				// one event per hold episode.
				st.emitLocked(job, Event{Type: "admission_held", Estimate: est,
					MemUsed: st.memUsed, Budget: st.memBudget})
			}
			if st.shed != nil {
				st.stats.Shed++
				st.mu.Unlock()
				freed := st.shed(deficit)
				st.mu.Lock()
				// The lock was dropped for shed: the head may have been
				// cancelled, claimed by another runner whose deficit
				// cleared, or caught by a Shutdown. Never act on the
				// stale id — start over unless this exact job is still
				// the queued head.
				if st.aborting || len(st.pending) == 0 || st.pending[0] != id ||
					st.jobs[id] == nil || st.jobs[id].State != "queued" {
					continue
				}
				st.emitLocked(st.jobs[id], Event{Type: "cache_shed", Estimate: deficit, Freed: freed})
				if freed > 0 {
					continue // budget changed: re-check the fit
				}
			}
			if st.admitted > 0 {
				st.cond.Wait()
				continue
			}
		}
		st.pending = st.pending[1:]
		st.memUsed += est
		st.admitted++
		if st.footprint != nil {
			if learned {
				st.stats.FootprintLearned++
			} else {
				st.stats.FootprintHeuristic++
			}
		}
		return id, est, true
	}
}

// overBudgetLocked returns how many bytes over budget admitting est would
// land (0 when it fits or no budget is set). Callers hold st.mu.
func (st *Store) overBudgetLocked(est int64) int64 {
	if st.memBudget <= 0 {
		return 0
	}
	used := st.memUsed + est
	if st.cacheResident != nil {
		used += st.cacheResident()
	}
	if used <= st.memBudget {
		return 0
	}
	return used - st.memBudget
}

func (st *Store) run(id int, est int64) {
	st.samplerOnce.Do(func() {
		st.samplerWG.Add(1)
		go st.sampler()
	})
	heapBase := readLiveHeap()
	st.mu.Lock()
	job := st.jobs[id]
	req := job.Request
	var ctx context.Context
	var cancelFn context.CancelFunc
	if req.TimeoutMS > 0 {
		ctx, cancelFn = context.WithTimeout(context.Background(), time.Duration(req.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancelFn = context.WithCancel(context.Background())
	}
	ctx = WithEmitter(ctx, func(ev Event) { st.emitJob(id, ev) })
	job.State = "running"
	job.Started = time.Now()
	job.cancel = cancelFn
	job.MemEstimate = est
	job.heapBase = heapBase
	job.heapPeak = heapBase
	st.stats.Queued--
	st.stats.Running++
	st.emitLocked(job, Event{Type: "running", Estimate: est})
	st.journal.Append(JournalRecord{Op: JournalOpRunning, Job: id, TS: job.Started})
	st.mu.Unlock()
	defer cancelFn()

	rec := metrics.NewRecorder()
	if st.onStart != nil {
		st.onStart(rec)
	}
	var res MineResult
	var err error
	for attempt := 0; ; attempt++ {
		// The failpoint models a transient infrastructure fault ahead of
		// the mine itself; evaluated per attempt, so FailAfter can fail
		// the first N attempts and let a retry succeed.
		if err = failpoint.Hit(failpoint.TelemetryJobMine); err == nil {
			res, err = st.mine(ctx, req, rec)
		}
		if err == nil || attempt >= st.maxRetries || !retryable(ctx, err) {
			break
		}
		st.mu.Lock()
		job.Retries = attempt + 1
		st.stats.Retried++
		st.emitLocked(job, Event{Type: "retry", Attempt: attempt + 1, Error: err.Error()})
		st.mu.Unlock()
		if !sleepCtx(ctx, st.retryDelay(attempt)) {
			err = ctx.Err() // cancelled or deadlined during backoff
			break
		}
	}
	snap := rec.Snapshot()
	heapEnd := readLiveHeap()

	st.mu.Lock()
	job.Finished = time.Now()
	job.Itemsets = res.Itemsets
	job.ServedFromCache = res.FromCache
	job.Stats = &snap
	job.cancel = nil
	if heapEnd > job.heapPeak {
		job.heapPeak = heapEnd
	}
	if peak := job.heapPeak - job.heapBase; peak > 0 && !res.FromCache {
		job.PeakBytes = peak
		if est > 0 {
			job.EstimateRatio = float64(peak) / float64(est)
		}
	}
	st.stats.Running--
	st.admitted--
	st.memUsed -= est
	switch {
	case err == nil:
		job.State = "done"
		st.stats.Done++
		if res.FromCache {
			st.stats.CacheServed++
		}
	case errors.Is(err, context.Canceled):
		job.State = "cancelled"
		job.Error = err.Error()
		st.stats.Cancelled++
	default:
		job.State = "failed"
		job.Error = err.Error()
		st.stats.Failed++
	}
	st.recordTerminalLocked(job)
	observe := st.observeFootprint
	peak := job.PeakBytes
	done := job.State == "done" && !res.FromCache
	st.mu.Unlock()
	// Budget and a runner freed up: wake admission waiters.
	st.cond.Broadcast()
	if observe != nil && done && peak > 0 {
		observe(req, peak)
	}
}

// retryable classifies a mine error: anything is presumed transient and
// worth a retry except a trip of the job's own context — a cancelled or
// deadlined job must reach its terminal state, not burn its deadline
// retrying.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// retryDelay is the backoff before retry attempt+1: exponential from
// retryBase, capped at retryMax, with full jitter over the upper half of
// the window so a burst of same-fault jobs does not retry in lockstep.
func (st *Store) retryDelay(attempt int) time.Duration {
	d := st.retryBase
	for i := 0; i < attempt && d < st.retryMax; i++ {
		d *= 2
	}
	if d > st.retryMax {
		d = st.retryMax
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// sleepCtx sleeps d unless ctx trips first; reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// heapSampleInterval paces the in-flight peak-heap sampler. Coarse on
// purpose: one runtime/metrics read per tick for the whole store, so the
// recorder's steady-state cost is noise while still catching the peak of
// any mine phase longer than a few ticks (the boundary reads in run()
// already cover shorter jobs).
const heapSampleInterval = 25 * time.Millisecond

// readLiveHeap returns the process's live-heap bytes via runtime/metrics
// — the cheap estimate the runtime maintains anyway (no stop-the-world,
// unlike runtime.ReadMemStats).
func readLiveHeap() int64 {
	sample := [1]runtimemetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	runtimemetrics.Read(sample[:])
	if sample[0].Value.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	v := sample[0].Value.Uint64()
	if v > 1<<62 {
		return 1 << 62
	}
	return int64(v)
}

// sampler is the store's single in-flight peak-heap observer: every tick
// it reads the live heap once and raises the running jobs' heapPeak
// watermarks. Started lazily by the first run(), joined by
// Close/Shutdown.
func (st *Store) sampler() {
	defer st.samplerWG.Done()
	tick := time.NewTicker(heapSampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-st.samplerStop:
			return
		case <-tick.C:
		}
		cur := readLiveHeap()
		st.mu.Lock()
		if st.stats.Running > 0 {
			for _, j := range st.jobs {
				if j != nil && j.State == "running" && cur > j.heapPeak {
					j.heapPeak = cur
				}
			}
		}
		st.mu.Unlock()
	}
}
