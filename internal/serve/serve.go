// Package serve wires the real mining library into the telemetry job
// server: it owns the MineFunc that executes submitted jobs through the
// observed in-memory and partitioned paths, the serving caches that make
// repeated jobs cheap, and the admission-control hooks that keep N
// concurrent jobs under one memory budget. Split out of cmd/fpm so that
// both the `fpm serve` subcommand and the load-test driver (cmd/fpmload,
// internal/loadgen) can host an identical server — the harness exercises
// exactly the production wiring, not a test double.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"fpm"
	"fpm/internal/servecache"
	"fpm/internal/telemetry"
)

// Default byte caps for the serving caches when the caller does not size
// them. Both shrink under a configured memory budget (see NewInstance).
const (
	DefaultDatasetCacheBytes = 256 << 20
	DefaultResultCacheBytes  = 64 << 20
)

// footprintFloor is the minimum per-job footprint estimate: even a tiny
// file costs parse buffers, per-worker collectors and scheduler state.
const footprintFloor = 1 << 20

// DefaultMaxRetries is how many times a transiently failed mine attempt
// is retried when the caller does not choose (Config.MaxRetries == 0).
const DefaultMaxRetries = 2

// State-dir file names: the result-cache snapshot sidecar and the
// generation-numbered job journals (one per process lifetime, so job IDs
// — which restart at 0 — stay unambiguous across restarts).
const (
	snapshotFileName  = "results.snap"
	journalFilePrefix = "jobs.journal."
)

// Config shapes one serve instance.
type Config struct {
	// QueueCap bounds the pending-job queue; submissions beyond it are
	// rejected with HTTP 429. Zero means telemetry.DefaultQueueCap.
	QueueCap int
	// MaxConcurrent is the job-runner pool size; zero means 1 (the
	// pre-multi-tenant behaviour). Mining parallelism inside a job
	// (JobRequest.Workers) is independent.
	MaxConcurrent int
	// MemBudget, when positive, is the global memory budget in bytes:
	// a job whose estimated footprint does not fit alongside the running
	// jobs and the cached state waits in queue instead of OOMing the
	// process. Zero disables admission control.
	MemBudget int64
	// DatasetCacheBytes / ResultCacheBytes cap the serving caches; zero
	// picks the defaults (bounded further by MemBudget when set).
	DatasetCacheBytes int64
	ResultCacheBytes  int64
	// DisableDatasetCache / DisableResultCache turn a cache off entirely —
	// the levers the load harness uses for before/after comparisons.
	DisableDatasetCache bool
	DisableResultCache  bool
	// EventLog, when non-nil, streams every flight-recorder event to it
	// as NDJSON (one JSON object per line) as jobs move through the
	// store — the writer behind `fpm serve -log-json`. The write happens
	// under the store's lock, so a blocking writer backpressures the
	// scheduler; leave nil for latency-sensitive hosting and read
	// timelines from GET /jobs/{id}/events instead.
	EventLog io.Writer
	// StateDir, when non-empty, makes the instance durable: the result
	// cache is periodically snapshotted there (and restored at startup,
	// so a hot key is hot again after a kill -9), and every job state
	// transition is journaled so a restart can requeue the jobs a crash
	// — or a graceful requeue-on-restart drain — left behind. Corrupt or
	// stale state degrades to a cold start, never a failed boot; an
	// unusable directory (cannot create or open files) disables
	// durability and is reported in Instance.DurabilityErr.
	StateDir string
	// PersistInterval paces the background snapshot writer; zero means
	// servecache.DefaultPersistInterval.
	PersistInterval time.Duration
	// MaxRetries bounds transparent retries of transiently failed mine
	// attempts: 0 means DefaultMaxRetries, negative disables retries.
	MaxRetries int
}

// Instance is one hosted serving stack: HTTP surface, job scheduler, the
// caches they share, the footprint learner feeding admission, and — when
// Config.StateDir is set — the durability pair (snapshot persister and
// job journal).
type Instance struct {
	Server  *telemetry.Server
	Store   *telemetry.Store
	Caches  *servecache.Caches
	Learner *FootprintLearner
	// Persister snapshots the result cache to the state dir; nil when the
	// instance is not durable (no StateDir, or the result cache is
	// disabled).
	Persister *servecache.Persister
	// Journal receives job state transitions; nil when not durable.
	Journal *telemetry.Journal
	// Recovered are the jobs resubmitted from previous generations'
	// journals at startup, in resubmission order.
	Recovered []telemetry.Job
	// DurabilityErr reports an environmental failure that disabled (part
	// of) durability at startup — an uncreatable state dir, an unopenable
	// journal. Data corruption is NOT reported here: a corrupt snapshot
	// or journal degrades to a cold start by design (visible in the
	// fpm_cache_persist_* metrics instead).
	DurabilityErr error
}

// Close shuts the instance down in durability order: drain the store
// (with a journal, queued jobs are journaled as requeue-on-restart), take
// the final result-cache snapshot, close the journal, then drain the
// HTTP server.
func (inst *Instance) Close(ctx context.Context) error {
	inst.Store.Shutdown()
	if inst.Persister != nil {
		inst.Persister.Close()
	}
	var firstErr error
	if inst.Journal != nil {
		if err := inst.Journal.Close(); err != nil {
			firstErr = err
		}
	}
	if err := inst.Server.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// NewInstance builds the full serving stack described by cfg.
func NewInstance(cfg Config) *Instance {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = telemetry.DefaultQueueCap
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	caches := &servecache.Caches{}
	if !cfg.DisableDatasetCache {
		b := cfg.DatasetCacheBytes
		if b <= 0 {
			b = DefaultDatasetCacheBytes
		}
		// Cached state is charged against the memory budget, so never let a
		// cache cap alone exceed half the budget — otherwise cold cached
		// bytes could crowd out admission before shedding kicks in.
		if cfg.MemBudget > 0 && b > cfg.MemBudget/2 {
			b = cfg.MemBudget / 2
		}
		caches.Datasets = servecache.NewDatasetCache(b)
	}
	if !cfg.DisableResultCache {
		b := cfg.ResultCacheBytes
		if b <= 0 {
			b = DefaultResultCacheBytes
		}
		if cfg.MemBudget > 0 && b > cfg.MemBudget/4 {
			b = cfg.MemBudget / 4
		}
		caches.Results = servecache.NewResultCache(b)
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	srv := telemetry.NewServer()
	learner := NewFootprintLearner()
	inst := &Instance{Server: srv, Caches: caches, Learner: learner}

	// Durability setup. Everything here degrades: a corrupt snapshot or
	// journal means a cold start, an unusable directory means a
	// non-durable instance with DurabilityErr set — never a failed boot
	// and never a crash.
	var pending []telemetry.PendingJob
	var oldJournals []string
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			inst.DurabilityErr = fmt.Errorf("serve: state dir: %w", err)
		} else {
			var restored servecache.RestoreStats
			corrupt := false
			snapPath := filepath.Join(cfg.StateDir, snapshotFileName)
			if caches.Results != nil {
				if data, err := os.ReadFile(snapPath); err == nil {
					if restored, err = caches.Results.RestoreSnapshot(data); err != nil {
						corrupt = true // cold start; counted, not fatal
					}
				} else if !errors.Is(err, fs.ErrNotExist) {
					inst.DurabilityErr = fmt.Errorf("serve: snapshot: %w", err)
				}
				inst.Persister = servecache.NewPersister(caches.Results, snapPath, cfg.PersistInterval)
				inst.Persister.NoteRestore(restored, corrupt)
			}
			var gen int
			pending, oldJournals, gen = recoverJournals(cfg.StateDir)
			jnl, err := telemetry.OpenJournal(filepath.Join(cfg.StateDir,
				fmt.Sprintf("%s%d", journalFilePrefix, gen+1)))
			if err != nil {
				inst.DurabilityErr = fmt.Errorf("serve: journal: %w", err)
				pending, oldJournals = nil, nil
			} else {
				inst.Journal = jnl
			}
		}
	}

	var sink func(telemetry.Event)
	if cfg.EventLog != nil {
		// The sink runs under the store's lock (see StoreConfig.EventSink),
		// which is also what serializes the encoder.
		enc := json.NewEncoder(cfg.EventLog)
		sink = func(ev telemetry.Event) { _ = enc.Encode(ev) }
	}
	store := telemetry.NewStore(inst.mineJob, srv.SetRecorder, telemetry.StoreConfig{
		QueueCap:         cfg.QueueCap,
		MaxConcurrent:    cfg.MaxConcurrent,
		MemBudget:        cfg.MemBudget,
		Footprint:        learner.footprint,
		CacheResident:    caches.Resident,
		Shed:             caches.Shed,
		EventSink:        sink,
		ObserveFootprint: learner.observe,
		Journal:          inst.Journal,
		MaxRetries:       maxRetries,
	})
	inst.Store = store
	srv.AttachJobs(store)
	srv.AttachCacheStats(func() telemetry.CacheStats {
		cs := adaptCacheStats(caches.Stats())
		if inst.Persister != nil {
			ps := inst.Persister.Stats()
			cs.PersistEnabled = true
			cs.PersistWrites = ps.Writes
			cs.PersistErrors = ps.Errors
			cs.PersistLastBytes = ps.LastBytes
			cs.PersistRestored = ps.Restored
			cs.PersistDroppedStale = ps.DroppedStale
			cs.PersistDroppedUnreadable = ps.DroppedUnreadable
			cs.PersistCorrupt = ps.Corrupt
		}
		return cs
	})

	// Replay what previous generations lost. Resubmission is
	// at-least-once (a crash between resubmit and journal deletion
	// replays again next boot), which recoverJournals' identity dedupe
	// and the result cache together make idempotent: a duplicate replay
	// is answered from the cache, not re-mined.
	for _, p := range pending {
		if job, err := store.SubmitRecovered(p.Req); err == nil {
			inst.Recovered = append(inst.Recovered, job)
		}
	}
	if inst.Journal != nil {
		_ = inst.Journal.Sync()
		for _, path := range oldJournals {
			os.Remove(path)
		}
	}
	return inst
}

// recoverJournals reads every journal generation in dir, folds each
// file's records into the jobs that never reached a terminal state in
// its process (plus the explicitly requeued ones), and dedupes across
// generations by input identity — the same request against the same file
// content recovers once, however many crashed generations journaled it.
// It returns the jobs to resubmit (oldest generation first, FIFO within
// one), the journal files read, and the highest generation number seen.
func recoverJournals(dir string) (pending []telemetry.PendingJob, files []string, maxGen int) {
	names, err := filepath.Glob(filepath.Join(dir, journalFilePrefix+"*"))
	if err != nil {
		return nil, nil, 0
	}
	type genFile struct {
		gen  int
		path string
	}
	var gens []genFile
	for _, path := range names {
		suffix := strings.TrimPrefix(filepath.Base(path), journalFilePrefix)
		gen, err := strconv.Atoi(suffix)
		if err != nil || gen < 0 {
			continue // not ours
		}
		gens = append(gens, genFile{gen: gen, path: path})
		if gen > maxGen {
			maxGen = gen
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].gen < gens[j].gen })
	type recKey struct {
		req telemetry.JobRequest
		id  string
	}
	seen := make(map[recKey]bool)
	for _, g := range gens {
		files = append(files, g.path)
		recs, err := telemetry.ReadJournal(g.path)
		if err != nil {
			continue
		}
		for _, p := range telemetry.PendingRequests(recs) {
			key := recKey{req: p.Req}
			if id, err := servecache.FileIdentity(p.Req.Path); err == nil {
				key.id = id.String()
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			pending = append(pending, p)
		}
	}
	return pending, files, maxGen
}

// EstimateFootprint is the admission controller's cold-start per-job
// memory estimate, used until the FootprintLearner has a measured peak
// for the job's (dataset identity, kernel) — see FootprintLearner for the
// learned path. Partitioned jobs are bounded by their own budget (doubled:
// the candidate union and pass-2 counters live outside the chunk
// budget); in-memory jobs scale with the on-disk input size — the parsed
// DB, the kernel's projections and the collectors together run a few
// multiples of it. Deliberately conservative: over-estimating delays a
// job, under-estimating OOMs the process.
func EstimateFootprint(req telemetry.JobRequest) int64 {
	if req.MemBudget > 0 {
		return 2 * req.MemBudget
	}
	est := int64(0)
	if fi, err := os.Stat(req.Path); err == nil {
		est = fi.Size() * 3
	}
	if est < footprintFloor {
		est = footprintFloor
	}
	return est
}

// mineJob is the store's MineFunc (on durable instances it also stamps
// origin hashes on the listings it inserts).
func (inst *Instance) mineJob(ctx context.Context, req telemetry.JobRequest, rec *fpm.MetricsRecorder) (telemetry.MineResult, error) {
	return mineWithCaches(ctx, req, rec, inst.Caches, inst.Persister != nil)
}

// mineWithCaches executes one submitted job: answer it from the result
// cache if possible, otherwise resolve the input (streamed for
// partitioned jobs, the shared parse from the dataset cache, or a one-off
// parse), mine it through the library's observed path — so the job's
// counters stream into rec and ctx cancels it cooperatively — and offer
// the listing to the result cache. caches may be nil.
func mineWithCaches(ctx context.Context, req telemetry.JobRequest, rec *fpm.MetricsRecorder, caches *servecache.Caches, durable bool) (telemetry.MineResult, error) {
	if req.MinSupport < 1 {
		return telemetry.MineResult{}, fmt.Errorf("job: min_support must be >= 1 (got %d)", req.MinSupport)
	}
	a := fpm.Algorithm(req.Algo)
	var ps fpm.PatternSet
	if req.Patterns == "" || req.Patterns == "all" {
		ps = fpm.Applicable(a)
	} else if req.Patterns != "none" {
		var err error
		if ps, err = ParsePatterns(req.Patterns, a); err != nil {
			return telemetry.MineResult{}, err
		}
	}

	// Result cache first: a listing cached at a support threshold <= the
	// query's answers it outright (exactly on a match, by filtering on
	// subsumption) and the mine is skipped entirely. The key carries the
	// resolved pattern bitset, so "lex,simd" and "simd,lex" share entries.
	var key servecache.ResultKey
	haveKey := false
	if caches != nil && caches.Results != nil {
		if id, err := servecache.FileIdentity(req.Path); err == nil {
			key = servecache.ResultKey{ID: id, Algo: req.Algo, Patterns: strconv.FormatUint(uint64(ps), 10)}
			haveKey = true
			if sets, outcome, ok := caches.Results.Serve(key, req.MinSupport); ok {
				telemetry.Emit(ctx, telemetry.Event{Type: "result_cache", Outcome: outcome})
				return telemetry.MineResult{Itemsets: len(sets), FromCache: true}, nil
			}
		}
	}

	// Resolve the input. Out-of-core jobs stream from disk by design —
	// caching the parsed DB would defeat the memory bound — but their
	// listings still land in the result cache below. A cached DB is shared
	// read-only across concurrent jobs; the reference pins it against
	// eviction until the mine returns.
	var db *fpm.DB
	release := func() {}
	switch {
	case req.MemBudget > 0: // the partitioned mine streams req.Path itself
	case caches != nil && caches.Datasets != nil:
		entry, outcome, err := caches.Datasets.Acquire(req.Path)
		if err != nil {
			return telemetry.MineResult{}, err
		}
		telemetry.Emit(ctx, telemetry.Event{Type: "dataset_cache", Outcome: outcome})
		db, release = entry.DB, func() { caches.Datasets.Release(entry) }
	default:
		var err error
		if db, err = fpm.ReadFIMIFile(req.Path); err != nil {
			return telemetry.MineResult{}, err
		}
	}

	opts := []fpm.ParallelOption{fpm.ParallelMetrics(rec), fpm.WithContext(ctx)}
	var sets []fpm.Itemset
	var err error
	telemetry.Emit(ctx, telemetry.Event{Type: "mine_start"})
	if req.MemBudget > 0 {
		sets, _, err = fpm.MinePartitioned(req.Path, a, ps, req.MinSupport, req.MemBudget, req.Workers, opts...)
	} else {
		sets, _, err = fpm.WithMetrics(db, a, ps, req.MinSupport, req.Workers, opts...)
	}
	telemetry.Emit(ctx, telemetry.Event{Type: "mine_end", Itemsets: len(sets)})
	release()
	if err != nil {
		return telemetry.MineResult{Itemsets: len(sets)}, err
	}
	if haveKey {
		stored := false
		if durable {
			// Durable insert: stamp the listing with its origin file and
			// that file's full-content FNV-64a, computed here — once, after
			// the mine, never on the cache-hit path. Restore validates the
			// hash against the live file, which closes the Identity
			// collision window (same size, same 64 KiB prefix, same mtime)
			// on the persistence path. If the file changed while we mined,
			// the identity no longer matches the key and the listing stays
			// memory-only under its (now unreachable) pre-mine key.
			if fh, err := servecache.FullFileHash(req.Path); err == nil {
				if id, err := servecache.FileIdentity(req.Path); err == nil && id == key.ID {
					caches.Results.InsertDurable(key, req.MinSupport, sets, req.Path, fh)
					stored = true
				}
			}
		}
		if !stored {
			caches.Results.Insert(key, req.MinSupport, sets)
		}
		telemetry.Emit(ctx, telemetry.Event{Type: "result_cache", Outcome: "store"})
	}
	return telemetry.MineResult{Itemsets: len(sets)}, nil
}

// adaptCacheStats maps the cache package's census onto the telemetry
// layer's flat struct (telemetry deliberately does not import servecache).
func adaptCacheStats(s servecache.Stats) telemetry.CacheStats {
	return telemetry.CacheStats{
		DatasetEntries:   s.Dataset.Entries,
		DatasetBytes:     s.Dataset.Bytes,
		DatasetHits:      s.Dataset.Hits,
		DatasetMisses:    s.Dataset.Misses,
		DatasetEvictions: s.Dataset.Evictions,
		DatasetSkipped:   s.Dataset.Skipped,

		ResultEntries:      s.Result.Entries,
		ResultBytes:        s.Result.Bytes,
		ResultHitsExact:    s.Result.HitsExact,
		ResultHitsSubsumed: s.Result.HitsSubsumed,
		ResultMisses:       s.Result.Misses,
		ResultEvictions:    s.Result.Evictions,
	}
}

// ParsePatterns resolves a comma-separated tuning-pattern list ("lex,simd")
// to a PatternSet; "" means none, "all" means every pattern applicable to
// algo. Shared by the CLI flag and the job-request field.
func ParsePatterns(s string, algo fpm.Algorithm) (fpm.PatternSet, error) {
	if s == "" {
		return 0, nil
	}
	if s == "all" {
		return fpm.Applicable(algo), nil
	}
	names := map[string]fpm.Pattern{
		"lex": fpm.Lex, "adapt": fpm.Adapt, "aggregate": fpm.Aggregate,
		"compact": fpm.Compact, "prefetchptr": fpm.PrefetchPtr,
		"tile": fpm.Tile, "prefetch": fpm.Prefetch, "simd": fpm.SIMD,
	}
	var ps fpm.PatternSet
	for _, name := range strings.Split(s, ",") {
		p, ok := names[strings.TrimSpace(strings.ToLower(name))]
		if !ok {
			return 0, fmt.Errorf("unknown pattern %q", name)
		}
		ps = ps.With(p)
	}
	return ps, nil
}
