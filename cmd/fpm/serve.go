// The `fpm serve` subcommand: a long-lived multi-tenant mining server.
// Jobs are submitted over HTTP and mined on a pool of -max-concurrent
// runners under -mem-budget admission control (a job whose estimated
// footprint does not fit waits in queue instead of OOMing the process).
// Repeated jobs are cheap: parsed datasets are shared through a
// ref-counted cache, and answers are served from a result cache that also
// subsumes higher support thresholds. The telemetry endpoints (/metrics,
// /progress) follow whichever run started most recently, so a dashboard
// or `curl` loop can watch a long partitioned mine progress. Jobs may
// carry a per-job timeout and can be cancelled mid-run with DELETE. The
// pending queue is bounded: submissions beyond -queue-cap get HTTP 429.
//
// Every job carries a bounded flight recorder — a structured event
// timeline (submitted, admission holds, cache outcomes, mine start/end,
// terminal) served at GET /jobs/{id}/events and, with -log-json,
// streamed to stdout as NDJSON while the server runs.
//
//	fpm serve -addr localhost:9090 -queue-cap 64 -max-concurrent 4 -mem-budget 2G
//	curl -X POST -d '{"path":"tx.dat","algo":"lcm","min_support":100,"timeout_ms":60000}' http://localhost:9090/jobs
//	curl http://localhost:9090/progress
//	curl http://localhost:9090/jobs/0/events
//	curl -X DELETE http://localhost:9090/jobs/0
//
// With -cache-persist DIR the server is durable: the result cache is
// snapshotted into DIR (atomic, CRC-checked — a restart pre-warms it, so
// a hot key is hot again even after kill -9) and every job state
// transition is journaled there, so a restarted server requeues the jobs
// a crash left queued or running (marked recovered:true). Transient mine
// failures are retried with capped exponential backoff (-max-retries).
//
// SIGINT/SIGTERM shut the server down gracefully: the job in flight is
// cancelled cooperatively, queued jobs are marked cancelled (or, with
// -cache-persist, journaled as requeue-on-restart so the next boot picks
// them up), in-flight HTTP responses drain, and the process exits 0.
//
// The wiring (real miner into the telemetry job store) lives in
// internal/serve so the load harness (cmd/fpmload) can host an identical
// server in-process.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fpm/internal/serve"
	"fpm/internal/servecache"
	"fpm/internal/telemetry"
)

// runServe runs the job-serving mode until interrupted.
func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fpm serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:9090", "HTTP listen address")
	queueCap := fs.Int("queue-cap", telemetry.DefaultQueueCap, "max pending jobs before POST /jobs returns 429")
	maxConc := fs.Int("max-concurrent", runtime.GOMAXPROCS(0), "concurrent job runners")
	memBudget := fs.String("mem-budget", "0", "global memory budget for admission control, e.g. 2G (0 = unlimited)")
	dsCache := fs.String("dataset-cache", "", "dataset cache cap, e.g. 256M; 0 disables, empty = default")
	resCache := fs.String("result-cache", "", "result cache cap, e.g. 64M; 0 disables, empty = default")
	logJSON := fs.Bool("log-json", false, "stream every job's flight-recorder events to stdout as NDJSON (one JSON event per line)")
	cachePersist := fs.String("cache-persist", "", "state directory for durability: result-cache snapshots + job journal; restart pre-warms the cache and requeues lost jobs (empty = in-memory only)")
	persistInterval := fs.Duration("persist-interval", 0, "result-cache snapshot cadence (0 = default 2s); needs -cache-persist")
	maxRetries := fs.Int("max-retries", serve.DefaultMaxRetries, "transparent retries (with capped exponential backoff) of a transiently failed mine attempt; 0 disables")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	var budgetBytes int64
	if *memBudget != "" && *memBudget != "0" {
		var err error
		budgetBytes, err = parseBytes(*memBudget)
		if err != nil {
			fmt.Fprintf(stderr, "fpm serve: bad -mem-budget: %v\n", err)
			return errUsage
		}
	}
	cfg := serve.Config{QueueCap: *queueCap, MaxConcurrent: *maxConc, MemBudget: budgetBytes,
		StateDir: *cachePersist, PersistInterval: *persistInterval}
	if *maxRetries <= 0 {
		cfg.MaxRetries = -1 // 0 on the flag means "no retries", not "default"
	} else {
		cfg.MaxRetries = *maxRetries
	}
	if *logJSON {
		cfg.EventLog = stdout
	}
	if *dsCache != "" {
		n, err := parseBytes(*dsCache)
		if err != nil {
			fmt.Fprintf(stderr, "fpm serve: bad -dataset-cache: %v\n", err)
			return errUsage
		}
		if n == 0 {
			cfg.DisableDatasetCache = true
		} else {
			cfg.DatasetCacheBytes = n
		}
	}
	if *resCache != "" {
		n, err := parseBytes(*resCache)
		if err != nil {
			fmt.Fprintf(stderr, "fpm serve: bad -result-cache: %v\n", err)
			return errUsage
		}
		if n == 0 {
			cfg.DisableResultCache = true
		} else {
			cfg.ResultCacheBytes = n
		}
	}
	inst := serve.NewInstance(cfg)
	if inst.DurabilityErr != nil {
		// The operator asked for durability and cannot have it; failing
		// fast beats silently serving without a safety net.
		fmt.Fprintf(stderr, "fpm serve: %v\n", inst.DurabilityErr)
		return inst.DurabilityErr
	}
	lnAddr, err := inst.Server.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fpm: serving on http://%s (POST /jobs; GET /jobs, /jobs/{id}/events, /metrics, /progress, /healthz, /debug/pprof; DELETE /jobs/{id})\n", lnAddr)
	if *cachePersist != "" {
		var ps servecache.PersistStats
		if inst.Persister != nil {
			ps = inst.Persister.Stats()
		}
		fmt.Fprintf(stderr, "fpm: durable state in %s: restored %d cached listing(s) (dropped %d stale, %d unreadable), requeued %d job(s) from the journal\n",
			*cachePersist, ps.Restored, ps.DroppedStale, ps.DroppedUnreadable, len(inst.Recovered))
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	fmt.Fprintln(stderr, "fpm: shutting down: cancelling jobs in flight, draining connections")
	ctx, cancelFn := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelFn()
	// Close drains the store (journaling queued jobs as requeue-on-restart
	// when -cache-persist is set), flushes the final cache snapshot,
	// closes the journal, then drains HTTP.
	return inst.Close(ctx)
}
