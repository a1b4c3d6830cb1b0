// Command fpm mines frequent itemsets from a FIMI-format transaction file.
//
// Usage:
//
//	fpm -in transactions.dat -support 100 [-algo lcm|eclat|fpgrowth|apriori|hmine|tidset|diffset|auto]
//	    [-patterns lex,adapt,aggregate,compact,prefetchptr,tile,prefetch,simd|all]
//	    [-workers N] [-cutoff W] [-det] [-out results.txt] [-count]
//	    [-partition] [-mem-budget 64M] [-checkpoint file] [-resume] [-chunk-lex]
//	    [-timeout 30s] [-stats table|json] [-describe]
//
// With -algo auto the kernel and tuning patterns are selected from the
// input's measured characteristics (density, clustering, transaction
// count), implementing the paper's §6 transformation-selection problem.
//
// With -partition the input is never loaded whole: it is mined
// out-of-core with the SON two-pass algorithm, streaming the file in
// chunks sized to -mem-budget (bytes, with optional K/M/G suffix) and
// recounting candidate supports exactly on a second pass. The result is
// identical to the in-memory run; -partition requires an explicit
// four-kernel -algo (the autotuner and the alternative miners need the
// loaded database).
//
// With -checkpoint (or -resume, which defaults the sidecar to
// <in>.fpmck) a partitioned run persists its progress after every chunk
// with an atomic temp-file + rename, so a crashed or cancelled run loses
// at most the chunk in flight; -resume validates the sidecar against the
// input and configuration and skips every chunk the previous run
// completed, silently starting fresh on any mismatch. The sidecar is
// removed when the run completes.
//
// Every in-memory -kind all run mines through one library call
// (fpm.WithMetrics) whatever its -algo, -algo auto included, so -timeout
// and -workers apply to every -algo. With -timeout the run is bounded in
// wall time: the kernels poll a cancellation flag at every recursion node
// (lcm, eclat, fpgrowth, hmine), the scheduler drops queued tasks, and
// partitioned runs stop at the next chunk boundary, exiting with a
// deadline error. Cancellation is cooperative — a sequential apriori run
// and the tidset/diffset alternatives run to completion, and hmine,
// tidset and diffset mine sequentially whatever -workers says.
//
// With -stats the run's observability counters (nodes expanded, support
// countings, itemsets emitted, candidate prunes, and — with -workers != 1 —
// the work-stealing scheduler's task/steal/utilization counters) are
// printed to stdout as an aligned table or as JSON (the machine-readable
// metrics.Snapshot schema); the itemset listing is then suppressed unless
// -out redirects it to a file.
//
// With -trace the run's span timeline — one track per scheduler worker,
// kernel first-level subtrees on sequential runs, partition phases and
// chunks out-of-core, plus sampled counter series — is written as Chrome
// trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. With -telemetry-addr the run is additionally
// observable live over HTTP (/metrics Prometheus text, /progress JSON,
// /healthz, /debug/pprof) while it mines.
//
// The `fpm serve` subcommand runs a long-lived mining server: jobs are
// POSTed to /jobs and mined one at a time, with the same live telemetry
// endpoints following the run in flight (see -help of `fpm serve`).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"fpm"
	"fpm/internal/serve"
	"fpm/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == errUsage {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "fpm:", err)
		os.Exit(1)
	}
}

// errUsage signals a flag/usage failure (exit code 2); flag.FlagSet has
// already printed the diagnostics.
var errUsage = fmt.Errorf("usage")

// run executes one CLI invocation. It is the testable core of main: golden
// tests drive it with an argument vector and in-memory writers.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("fpm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input transaction file (FIMI format); required")
		out      = fs.String("out", "", "output file (default stdout)")
		algo     = fs.String("algo", "auto", "mining kernel: lcm, eclat, fpgrowth, apriori, hmine, tidset, diffset or auto")
		support  = fs.Int("support", 0, "absolute minimum support; required")
		patterns = fs.String("patterns", "", "comma-separated tuning patterns, or \"all\" for every applicable pattern (ignored with -algo auto)")
		count    = fs.Bool("count", false, "print only the number of frequent itemsets")
		workers  = fs.Int("workers", 1, "work-stealing mining workers (1 = sequential; 0 = GOMAXPROCS)")
		cutoff   = fs.Int("cutoff", 0, "minimum estimated subtree weight to spawn a stealable task (0 = default)")
		det      = fs.Bool("det", false, "deterministic parallel merge order (sorted canonically)")
		kind     = fs.String("kind", "all", "result kind: all, closed or maximal")
		stats    = fs.String("stats", "", "print run-time mining counters to stdout: \"table\" or \"json\" (itemset listing suppressed unless -out is set)")
		describe = fs.Bool("describe", false, "print dataset statistics and the autotuner recommendation, then exit")
		part     = fs.Bool("partition", false, "mine out-of-core: stream the file in bounded chunks (SON two-pass) instead of loading it")
		budget   = fs.String("mem-budget", "64M", "out-of-core memory budget in bytes (K/M/G suffixes allowed); resident chunk + kernel working set stay within it")
		traceOut = fs.String("trace", "", "write the run's span timeline to this file as Chrome trace-event JSON (Perfetto/chrome://tracing loadable)")
		teleAddr = fs.String("telemetry-addr", "", "serve live run telemetry over HTTP on this address (/metrics, /progress, /healthz, /debug/pprof)")
		timeout  = fs.Duration("timeout", 0, "bound mining wall time; overrunning runs are cancelled cooperatively and exit with a deadline error")
		ckpt     = fs.String("checkpoint", "", "out-of-core: persist progress to this sidecar file after every chunk (crash-safe; removed on success)")
		resume   = fs.Bool("resume", false, "out-of-core: resume from the -checkpoint sidecar (default <in>.fpmck), skipping completed chunks")
		chunkLex = fs.Bool("chunk-lex", false, "out-of-core: reorder each pass-1 chunk by chunk-local frequency (pattern P1) before mining it")
	)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if *in == "" || (*support < 1 && !*describe) {
		fs.Usage()
		return errUsage
	}
	if *stats != "" && *stats != "table" && *stats != "json" {
		return fmt.Errorf("invalid -stats %q: want \"table\" or \"json\"", *stats)
	}
	if (*ckpt != "" || *resume || *chunkLex) && !*part {
		return fmt.Errorf("-checkpoint/-resume/-chunk-lex require -partition")
	}

	var popts []fpm.ParallelOption
	if *timeout > 0 {
		ctx, cancelRun := context.WithTimeout(context.Background(), *timeout)
		defer cancelRun()
		popts = append(popts, fpm.WithContext(ctx))
	}
	if *cutoff != 0 {
		popts = append(popts, fpm.ParallelCutoff(*cutoff))
	}
	if *det {
		popts = append(popts, fpm.ParallelDeterministic())
	}

	// Any observability output (-stats, -trace, -telemetry-addr) shares
	// one recorder between the run and its readers.
	observed := *stats != "" || *traceOut != "" || *teleAddr != ""
	var rec *fpm.MetricsRecorder
	if observed {
		rec = fpm.NewMetricsRecorder()
		popts = append(popts, fpm.ParallelMetrics(rec))
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		popts = append(popts, fpm.WithTrace(f))
	}
	if *teleAddr != "" {
		srv := telemetry.NewServer()
		srv.SetRecorder(rec)
		addr, err := srv.Start(*teleAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "fpm: telemetry listening on http://%s\n", addr)
		defer func() { _ = srv.Shutdown(context.Background()) }()
	}

	if *part {
		// Out-of-core: the file is streamed, never loaded whole, so every
		// path that needs the in-memory database is unavailable.
		if *describe {
			return fmt.Errorf("-describe needs the loaded database; drop -partition")
		}
		if *kind != "all" {
			return fmt.Errorf("-partition supports -kind all only")
		}
		a := fpm.Algorithm(*algo)
		switch a {
		case fpm.LCM, fpm.Eclat, fpm.FPGrowth, fpm.Apriori:
		default:
			return fmt.Errorf("-partition requires an explicit -algo lcm|eclat|fpgrowth|apriori (got %q)", *algo)
		}
		memBytes, err := parseBytes(*budget)
		if err != nil {
			return fmt.Errorf("invalid -mem-budget %q: %w", *budget, err)
		}
		ps, err := parsePatterns(*patterns, a)
		if err != nil {
			return err
		}
		ckptPath := *ckpt
		if ckptPath == "" && *resume {
			ckptPath = *in + ".fpmck"
		}
		rc := fpm.PartitionRunConfig{Checkpoint: ckptPath, Resume: *resume, ChunkLex: *chunkLex}
		sets, _, err := fpm.MinePartitionedWithConfig(*in, a, ps, *support, memBytes, *workers, rc, popts...)
		return finish(sets, rec.Snapshot(), traceFile, err, *out, *stats, *count, stdout)
	}

	db, err := fpm.ReadFIMIFile(*in)
	if err != nil {
		return err
	}

	if *describe {
		s := fpm.ComputeStats(db)
		fmt.Fprintf(stdout, "transactions: %d\nitems: %d\navg length: %.2f\nmax length: %d\ndensity: %.5f\nclustering: %.3f\n",
			s.Transactions, s.Items, s.AvgLen, s.MaxLen, s.Density, s.Clustering)
		if *support >= 1 {
			rec := fpm.Recommend(db, *support)
			fmt.Fprintf(stdout, "recommendation: %s\n", rec)
			for _, line := range rec.Rationale {
				fmt.Fprintf(stdout, "  - %s\n", line)
			}
		}
		return nil
	}

	if *kind == "closed" || *kind == "maximal" {
		if observed {
			return fmt.Errorf("-stats/-trace/-telemetry-addr support -kind all only")
		}
		mineKind := fpm.MineClosed
		if *kind == "maximal" {
			mineKind = fpm.MineMaximal
		}
		sets, err := mineKind(db, *support)
		return finish(sets, fpm.Snapshot{}, traceFile, err, *out, *stats, *count, stdout)
	}

	// Every -kind all run, whatever its -algo, mines through this one call,
	// so -workers, -timeout, -cutoff and -det reach every kernel that
	// supports them.
	a, ps := fpm.Algorithm(*algo), fpm.PatternSet(0)
	switch a {
	case "auto":
		rec := fpm.Recommend(db, *support)
		a, ps = rec.Algorithm, rec.Patterns
		fmt.Fprintf(stderr, "fpm: auto-selected %s\n", rec)
	case fpm.LCM, fpm.Eclat, fpm.FPGrowth, fpm.Apriori:
		if ps, err = parsePatterns(*patterns, a); err != nil {
			return err
		}
	}
	sets, snap, err := fpm.WithMetrics(db, a, ps, *support, *workers, popts...)
	return finish(sets, snap, traceFile, err, *out, *stats, *count, stdout)
}

// finish closes the trace sink and renders the results. A mining error
// suppresses output; a trace flush/close failure after a completed mine
// still prints the results, then surfaces the error once.
func finish(sets []fpm.Itemset, snap fpm.Snapshot, traceFile *os.File, err error, out, stats string, count bool, stdout io.Writer) error {
	mined := err == nil || sets != nil
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if !mined {
		return err
	}
	if werr := writeResults(sets, snap, out, stats, count, stdout); werr != nil && err == nil {
		err = werr
	}
	return err
}

// writeResults renders the mined itemsets and/or the stats snapshot,
// shared by the in-memory and out-of-core paths.
func writeResults(sets []fpm.Itemset, snap fpm.Snapshot, out, stats string, count bool, stdout io.Writer) error {
	if count {
		fmt.Fprintln(stdout, len(sets))
		return nil
	}

	// Result destination: stdout normally; with -stats the counters own
	// stdout and the listing only goes to an explicit -out file.
	resultW := io.Writer(nil)
	var flushers []*bufio.Writer
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		flushers = append(flushers, bw)
		resultW = bw
	} else if stats == "" {
		bw := bufio.NewWriter(stdout)
		flushers = append(flushers, bw)
		resultW = bw
	}

	if resultW != nil {
		// Deterministic output order: by size, then lexicographically.
		sort.Slice(sets, func(a, b int) bool {
			sa, sb := sets[a].Items, sets[b].Items
			if len(sa) != len(sb) {
				return len(sa) < len(sb)
			}
			for i := range sa {
				if sa[i] != sb[i] {
					return sa[i] < sb[i]
				}
			}
			return false
		})
		for _, s := range sets {
			for i, it := range s.Items {
				if i > 0 {
					fmt.Fprint(resultW, " ")
				}
				fmt.Fprintf(resultW, "%d", it)
			}
			fmt.Fprintf(resultW, " (%d)\n", s.Support)
		}
	}
	for _, bw := range flushers {
		if err := bw.Flush(); err != nil {
			return err
		}
	}

	switch stats {
	case "table":
		if err := snap.WriteTable(stdout); err != nil {
			return err
		}
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return err
		}
	}
	return nil
}

// parseBytes parses a byte count with an optional K/M/G binary suffix
// ("512", "64K", "1.5M", "2G").
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, s = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, s = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, s = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a size: %q", s)
	}
	n := int64(v * float64(mult))
	if n <= 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	return n, nil
}

// parsePatterns maps the -patterns flag to a PatternSet.
func parsePatterns(s string, algo fpm.Algorithm) (fpm.PatternSet, error) {
	return serve.ParsePatterns(s, algo)
}
