package telemetry

// Job-journal and retry-policy tests: WAL round trips with torn tails,
// pending-job recovery folding, the Shutdown drain's requeue-vs-cancel
// split, and transparent retry with backoff under injected transient
// faults.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpm/internal/failpoint"
	"fpm/internal/metrics"
)

func TestJournalAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal.1")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Path: "a.dat", Algo: "lcm", MinSupport: 3}
	j.Append(JournalRecord{Op: JournalOpSubmitted, Job: 0, TS: time.Now(), Req: &req})
	j.Append(JournalRecord{Op: JournalOpRunning, Job: 0, TS: time.Now()})
	j.Append(JournalRecord{Op: JournalOpTerminal, Job: 0, TS: time.Now(), State: "done"})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	if recs[0].Op != JournalOpSubmitted || recs[0].Req == nil || recs[0].Req.Path != "a.dat" {
		t.Fatalf("submitted record lost its request: %+v", recs[0])
	}
	if recs[2].State != "done" {
		t.Fatalf("terminal record state = %q", recs[2].State)
	}
}

// A torn tail — the record being appended at the instant of a kill -9 —
// must end the parse at the last whole line, not fail recovery.
func TestJournalTornTailKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal.1")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Path: "a.dat", Algo: "lcm", MinSupport: 3}
	j.Append(JournalRecord{Op: JournalOpSubmitted, Job: 0, Req: &req})
	j.Append(JournalRecord{Op: JournalOpRunning, Job: 0})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"terminal","job":0,"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn tail: read %d records, want the 2-record prefix", len(recs))
	}
	// The torn terminal never landed, so recovery still sees job 0 pending.
	pend := PendingRequests(recs)
	if len(pend) != 1 || pend[0].Req.Path != "a.dat" {
		t.Fatalf("pending after torn tail = %+v", pend)
	}
}

// A nil journal is the non-durable store's no-op; every method must be
// safe on it (the store calls them unconditionally).
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(JournalRecord{Op: JournalOpSubmitted})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPendingRequests(t *testing.T) {
	req := func(p string) *JobRequest { return &JobRequest{Path: p, Algo: "lcm", MinSupport: 2} }
	recs := []JournalRecord{
		{Op: JournalOpSubmitted, Job: 0, Req: req("done.dat")},
		{Op: JournalOpSubmitted, Job: 1, Req: req("crashed.dat")},
		{Op: JournalOpSubmitted, Job: 2, Req: req("requeued.dat")},
		{Op: JournalOpSubmitted, Job: 3}, // torn: no replayable request
		{Op: JournalOpRunning, Job: 1},
		{Op: JournalOpTerminal, Job: 0, State: "done"},
		{Op: JournalOpRequeue, Job: 2, State: "requeued"},
	}
	pend := PendingRequests(recs)
	if len(pend) != 2 {
		t.Fatalf("pending = %+v, want crashed.dat and requeued.dat", pend)
	}
	// FIFO by original submission order.
	if pend[0].Req.Path != "crashed.dat" || pend[0].Requeued {
		t.Fatalf("pend[0] = %+v", pend[0])
	}
	if pend[1].Req.Path != "requeued.dat" || !pend[1].Requeued {
		t.Fatalf("pend[1] = %+v", pend[1])
	}
	if got := PendingRequests(nil); len(got) != 0 {
		t.Fatalf("empty journal pends %+v", got)
	}
}

// The Shutdown drain's split: with a journal, queued jobs become
// "requeued" (journaled as such, so the next boot replays them); without
// one, the pre-journal semantics hold and they are cancelled.
func TestShutdownDrainRequeueVsCancel(t *testing.T) {
	for _, withJournal := range []bool{true, false} {
		name := "without-journal"
		if withJournal {
			name = "with-journal"
		}
		t.Run(name, func(t *testing.T) {
			var jnl *Journal
			var jnlPath string
			if withJournal {
				jnlPath = filepath.Join(t.TempDir(), "jobs.journal.1")
				var err error
				if jnl, err = OpenJournal(jnlPath); err != nil {
					t.Fatal(err)
				}
			}
			started := make(chan int, 1)
			st := NewStore(ctxMiner(started), nil, StoreConfig{Journal: jnl})
			running, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
			if err != nil {
				t.Fatal(err)
			}
			<-started
			queued, err := st.Submit(JobRequest{Path: "y.dat", Algo: "lcm", MinSupport: 3})
			if err != nil {
				t.Fatal(err)
			}
			st.Shutdown()

			// The in-flight job is cancelled either way — only a crash (no
			// terminal record) makes a running job recoverable.
			if j, _ := st.Get(running.ID); j.State != "cancelled" {
				t.Fatalf("in-flight job after shutdown: %+v", j)
			}
			j, _ := st.Get(queued.ID)
			stats := st.Stats()
			if withJournal {
				if j.State != "requeued" {
					t.Fatalf("queued job drained as %q, want requeued", j.State)
				}
				if stats.Requeued != 1 || stats.Cancelled != 1 {
					t.Fatalf("stats = %+v, want 1 requeued + 1 cancelled", stats)
				}
				if err := jnl.Close(); err != nil {
					t.Fatal(err)
				}
				recs, err := ReadJournal(jnlPath)
				if err != nil {
					t.Fatal(err)
				}
				// The cancelled runner got a terminal record (a graceful
				// cancel is final); only the drained queued job is pending,
				// and it carries the explicit requeue intent.
				pend := PendingRequests(recs)
				if len(pend) != 1 || pend[0].Req.Path != "y.dat" || !pend[0].Requeued {
					t.Fatalf("journal pends %+v, want exactly the requeued job", pend)
				}
			} else {
				if j.State != "cancelled" {
					t.Fatalf("queued job drained as %q, want cancelled", j.State)
				}
				if stats.Requeued != 0 || stats.Cancelled != 2 {
					t.Fatalf("stats = %+v, want 2 cancelled", stats)
				}
			}
		})
	}
}

// SubmitRecovered stamps the provenance: recovered:true on the record,
// the counter, the flight-recorder outcome, and the journal trail.
func TestSubmitRecoveredProvenance(t *testing.T) {
	st := NewStore(func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		return MineResult{Itemsets: 1}, nil
	}, nil, StoreConfig{})
	defer st.Close()
	job, err := st.SubmitRecovered(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Recovered {
		t.Fatal("recovered submission not marked")
	}
	got := waitState(t, st.Get, job.ID, "done")
	if !got.Recovered {
		t.Fatal("recovered flag lost by the terminal transition")
	}
	if st.Stats().Recovered != 1 {
		t.Fatalf("stats = %+v, want Recovered 1", st.Stats())
	}
	ev, _ := st.Events(job.ID)
	if len(ev.Events) == 0 || ev.Events[0].Outcome != "recovered" {
		t.Fatalf("submitted event = %+v, want outcome recovered", ev.Events)
	}
}

// retryStore builds a single-runner store with a tight backoff so retry
// tests run in milliseconds.
func retryStore(mine MineFunc, maxRetries int) *Store {
	return NewStore(mine, nil, StoreConfig{
		MaxRetries:     maxRetries,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  2 * time.Millisecond,
	})
}

// A transient fault on the first attempt is absorbed: the retry succeeds,
// the job finishes done, and the retry is visible on the record, the
// counter and the flight recorder.
func TestRetryTransientFaultSucceeds(t *testing.T) {
	reg := failpoint.New()
	reg.FailAfter(failpoint.TelemetryJobMine, 0, errors.New("transient io fault"))
	failpoint.Enable(reg)
	defer failpoint.Disable()

	st := retryStore(func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		return MineResult{Itemsets: 7}, nil
	}, 2)
	defer st.Close()
	job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, st.Get, job.ID, "done")
	if got.Retries != 1 || got.Itemsets != 7 {
		t.Fatalf("job = %+v, want 1 retry and the mined answer", got)
	}
	if st.Stats().Retried != 1 {
		t.Fatalf("stats = %+v, want Retried 1", st.Stats())
	}
	ev, _ := st.Events(job.ID)
	var retry *Event
	for i := range ev.Events {
		if ev.Events[i].Type == "retry" {
			retry = &ev.Events[i]
		}
	}
	if retry == nil || retry.Attempt != 1 || !strings.Contains(retry.Error, "transient") {
		t.Fatalf("retry event = %+v", retry)
	}
}

// A persistent fault exhausts the cap and the job fails with the last
// error after exactly MaxRetries extra attempts.
func TestRetryExhaustsCap(t *testing.T) {
	reg := failpoint.New()
	reg.Fail(failpoint.TelemetryJobMine, errors.New("disk on fire"))
	failpoint.Enable(reg)
	defer failpoint.Disable()

	st := retryStore(func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		t.Error("mine ran behind an always-armed failpoint")
		return MineResult{}, nil
	}, 2)
	defer st.Close()
	job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, st.Get, job.ID, "failed")
	if got.Retries != 2 || !strings.Contains(got.Error, "disk on fire") {
		t.Fatalf("job = %+v, want 2 retries then the fault", got)
	}
	if hits := reg.Hits(failpoint.TelemetryJobMine); hits != 3 {
		t.Fatalf("mine attempted %d times, want 1 + 2 retries", hits)
	}
}

// Cancellation and deadline are never retried: the job must reach its
// terminal state, not burn its deadline re-attempting.
func TestRetryNotOnCancelOrDeadline(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		started := make(chan int, 1)
		st := retryStore(ctxMiner(started), 5)
		defer st.Close()
		job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		st.Cancel(job.ID)
		got := waitState(t, st.Get, job.ID, "cancelled")
		if got.Retries != 0 {
			t.Fatalf("cancelled job retried %d times", got.Retries)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		st := retryStore(ctxMiner(nil), 5)
		defer st.Close()
		job, err := st.Submit(JobRequest{Path: "x.dat", Algo: "lcm", MinSupport: 2, TimeoutMS: 20})
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, st.Get, job.ID, "failed")
		if got.Retries != 0 || !strings.Contains(got.Error, context.DeadlineExceeded.Error()) {
			t.Fatalf("deadlined job = %+v, want no retries", got)
		}
	})
}

// retryDelay must grow exponentially from the base, stay within the cap,
// and jitter inside the upper half of the window.
func TestRetryDelayShape(t *testing.T) {
	st := NewStore(func(ctx context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		return MineResult{}, nil
	}, nil, StoreConfig{RetryBaseDelay: 100 * time.Millisecond, RetryMaxDelay: time.Second})
	defer st.Close()
	for attempt, window := range []time.Duration{100, 200, 400, 800, 1000, 1000} {
		window *= time.Millisecond
		for i := 0; i < 50; i++ {
			d := st.retryDelay(attempt)
			if d < window/2 || d > window {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, window/2, window)
			}
		}
	}
}
