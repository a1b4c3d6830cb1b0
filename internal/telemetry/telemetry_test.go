package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"fpm/internal/metrics"
)

func sampleSnapshot() metrics.Snapshot {
	return metrics.Snapshot{
		SchemaVersion: metrics.SnapshotSchemaVersion,
		Kernel:        `lcm("Lex\SIMD")`, // exercises label escaping
		Workers:       4,
		WallNanos:     int64(2 * time.Second),
		Nodes:         100, Supports: 250, Emitted: 40, Prunes: 9,
		Parallel: &metrics.ParallelStats{
			TasksSpawned: 12, TasksOffered: 20, TasksStolen: 5, StealFailures: 3,
			MergeNanos: int64(30 * time.Millisecond),
			Workers: []metrics.WorkerStat{
				{ID: 0, Tasks: 7, BusyNanos: int64(time.Second)},
				{ID: 1, Tasks: 5, BusyNanos: int64(time.Second / 2)},
			},
		},
		Partition: &metrics.PartitionStats{
			Chunks: 3, CandidatesGenerated: 60, CandidatesSurviving: 40,
			BytesPass1: 3000, BytesPass2: 1500, Pass1Nanos: 7e8, Pass2Nanos: 2e8,
			MemBudget: 1 << 20, InputBytes: 3000,
		},
	}
}

// promLine matches one exposition sample: name, optional {labels}, value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|NaN)$`)

// Every non-comment line must parse as a sample, every sample must be
// preceded by HELP/TYPE for its metric family, and the counters the
// scheduler/partition layers report must all be present.
func TestWritePrometheusIsParseable(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, sampleSnapshot(), true); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "gauge" && f[3] != "counter") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable sample line: %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if _, ok := typed[name]; !ok {
			t.Fatalf("sample %q has no preceding TYPE", line)
		}
	}

	for name, kind := range map[string]string{
		"fpm_running": "gauge", "fpm_run_seconds": "gauge", "fpm_workers": "gauge",
		"fpm_nodes_expanded_total": "counter", "fpm_itemsets_emitted_total": "counter",
		"fpm_tasks_spawned_total": "counter", "fpm_tasks_stolen_total": "counter",
		"fpm_worker_tasks_total": "counter", "fpm_worker_busy_seconds_total": "counter",
		"fpm_chunks_mined_total": "counter", "fpm_bytes_streamed_total": "counter",
		"fpm_pass_seconds_total": "counter", "fpm_mem_budget_bytes": "gauge",
		"fpm_input_bytes": "gauge",
	} {
		if typed[name] != kind {
			t.Fatalf("metric %s: TYPE %q, want %q\n%s", name, typed[name], kind, out)
		}
	}
	if !strings.Contains(out, `fpm_worker_tasks_total{worker="1"} 5`) {
		t.Fatalf("per-worker sample missing:\n%s", out)
	}
	if !strings.Contains(out, `fpm_bytes_streamed_total{pass="2"} 1500`) {
		t.Fatalf("per-pass sample missing:\n%s", out)
	}
	// The kernel label must be escaped, not raw (it contains \ and ").
	if !strings.Contains(out, `kernel="lcm(\"Lex\\SIMD\")"`) {
		t.Fatalf("kernel label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `schema_version="2"`) {
		t.Fatalf("schema_version label missing:\n%s", out)
	}
	if !strings.Contains(out, "fpm_running 1\n") {
		t.Fatalf("fpm_running should be 1 while live:\n%s", out)
	}
}

func TestProgressFromPartitionedRun(t *testing.T) {
	s := sampleSnapshot() // 4500 of 9000 total bytes → fraction 0.5
	p := ProgressFrom(s, true)
	if p.Fraction != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", p.Fraction)
	}
	if p.EtaNanos != s.WallNanos { // (1-0.5)/0.5 == 1× elapsed
		t.Fatalf("eta = %d, want %d", p.EtaNanos, s.WallNanos)
	}
	if p.ChunksDone != 3 || p.BytesStreamed != 4500 || p.InputBytes != 3000 {
		t.Fatalf("byte progress wrong: %+v", p)
	}

	// A finished run reports no ETA; fraction is capped at 1.
	s.Partition.BytesPass1 = 9000
	p = ProgressFrom(s, false)
	if p.Fraction != 1 || p.EtaNanos != 0 {
		t.Fatalf("finished run progress = %+v, want fraction 1 / no eta", p)
	}

	// In-memory runs carry no fraction at all.
	s.Partition = nil
	p = ProgressFrom(s, true)
	if p.Fraction != 0 || p.EtaNanos != 0 || p.ChunksDone != 0 {
		t.Fatalf("in-memory run progress = %+v, want counters only", p)
	}
	if p.Kernel == "" || !p.Running {
		t.Fatalf("identity fields lost: %+v", p)
	}
}

// The HTTP surface end to end with a fake miner: submit a job, watch it
// run to completion, scrape /metrics and /progress along the way.
func TestServerJobLifecycle(t *testing.T) {
	release := make(chan struct{})
	mine := func(_ context.Context, req JobRequest, rec *metrics.Recorder) (MineResult, error) {
		rec.Start("fake("+req.Algo+")", 1)
		defer rec.Stop()
		l := rec.NewLocal()
		l.Emit()
		rec.Flush(l)
		<-release
		if req.Algo == "boom" {
			return MineResult{}, errors.New("kernel exploded")
		}
		return MineResult{Itemsets: 9}, nil
	}
	srv := NewServer()
	store := NewStore(mine, srv.SetRecorder, StoreConfig{})
	srv.AttachJobs(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) Job {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, b)
		}
		var j Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	getJob := func(id int) Job {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var j Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return j
	}

	j0 := post(`{"path":"x.dat","algo":"lcm","min_support":2}`)
	j1 := post(`{"path":"y.dat","algo":"boom","min_support":2}`)
	if j0.ID == j1.ID {
		t.Fatalf("duplicate job ids: %d", j0.ID)
	}

	// Wait until the first job is live, then scrape mid-run.
	deadline := time.After(5 * time.Second)
	for getJob(j0.ID).State != "running" {
		select {
		case <-deadline:
			t.Fatal("job never started running")
		case <-time.After(time.Millisecond):
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "fpm_running 1") {
		t.Fatalf("mid-run scrape should show fpm_running 1:\n%s", body)
	}
	if !strings.Contains(string(body), `kernel="fake(lcm)"`) {
		t.Fatalf("mid-run scrape should carry the live job's kernel:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !prog.Running || prog.Kernel != "fake(lcm)" || prog.ItemsetsEmitted != 1 {
		t.Fatalf("mid-run progress = %+v", prog)
	}

	close(release)
	store.Close() // drains the queue

	if j := getJob(j0.ID); j.State != "done" || j.Itemsets != 9 || j.Stats == nil {
		t.Fatalf("job 0 final state = %+v", j)
	}
	if j := getJob(j1.ID); j.State != "failed" || j.Error != "kernel exploded" {
		t.Fatalf("job 1 final state = %+v", j)
	}

	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []Job
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 2 {
		t.Fatalf("GET /jobs listed %d jobs, want 2", len(all))
	}

	// Error surfaces.
	if resp, _ := http.Get(ts.URL + "/jobs/99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/99 = %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/jobs/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /jobs/abc = %d, want 400", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
}

// TestJobsBackpressureHTTP pins the admission-control surface: with a
// 1-slot queue and the runner occupied, the overflow POST must get HTTP
// 429 with a JSON body carrying the queue depth, the /metrics scrape must
// show the fpm_jobs_* gauges mid-storm, and the rejection must leave no
// job record behind.
func TestJobsBackpressureHTTP(t *testing.T) {
	started := make(chan struct{}, 8)
	block := make(chan struct{})
	mine := func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		started <- struct{}{}
		<-block
		return MineResult{Itemsets: 1}, nil
	}
	srv := NewServer()
	store := NewStore(mine, srv.SetRecorder, StoreConfig{QueueCap: 1})
	srv.AttachJobs(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"path":"x","algo":"lcm","min_support":2}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", resp.StatusCode)
	}
	<-started // runner is busy; the queue slot is free again
	resp = post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST = %d, want 202 (fills the queue)", resp.StatusCode)
	}

	resp = post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("429 Content-Type = %q", ct)
	}
	var body struct {
		Error    string `json:"error"`
		Queued   int    `json:"queued"`
		QueueCap int    `json:"queue_cap"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Error == "" || body.Queued != 1 || body.QueueCap != 1 {
		t.Fatalf("429 body = %+v", body)
	}

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	mid := scrape()
	for _, want := range []string{
		"fpm_jobs_queued 1", "fpm_jobs_running 1", "fpm_jobs_queue_cap 1",
		"fpm_jobs_submitted_total 2", "fpm_jobs_rejected_total 1",
	} {
		if !strings.Contains(mid, want) {
			t.Fatalf("mid-storm /metrics missing %q:\n%s", want, mid)
		}
	}

	close(block)
	store.Close()
	final := scrape()
	for _, want := range []string{"fpm_jobs_queued 0", "fpm_jobs_running 0", "fpm_jobs_done_total 2"} {
		if !strings.Contains(final, want) {
			t.Fatalf("drained /metrics missing %q:\n%s", want, final)
		}
	}
	if n := len(store.List()); n != 2 {
		t.Fatalf("store lists %d jobs, want 2 (rejection must not be recorded)", n)
	}
}

// Scrapes with no recorder attached must serve empty-but-valid payloads
// rather than panic on the nil recorder.
func TestServerScrapesWithoutRecorder(t *testing.T) {
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "fpm_running 0") {
		t.Fatalf("bare /metrics = %d:\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if prog.Running || prog.SchemaVersion != metrics.SnapshotSchemaVersion {
		t.Fatalf("bare /progress = %+v", prog)
	}
}

func TestStoreQueueFull(t *testing.T) {
	block := make(chan struct{})
	st := NewStore(func(context.Context, JobRequest, *metrics.Recorder) (MineResult, error) {
		<-block
		return MineResult{}, nil
	}, nil, StoreConfig{QueueCap: 4})
	// One job occupies the runner (it drains from the queue as soon as the
	// runner picks it up), so keep submitting until the 4-slot queue
	// itself is full; rejections must not grow the job list.
	var err error
	admitted := 0
	for i := 0; i < 50; i++ {
		_, err = st.Submit(JobRequest{})
		if err != nil {
			break
		}
		admitted++
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit after queue full = %v, want ErrQueueFull", err)
	}
	if admitted > 5 {
		t.Fatalf("admitted %d jobs through a 4-slot queue", admitted)
	}
	// A rejection leaves no record behind: a rejection storm must not grow
	// the store's memory. It is visible only in the Rejected counter.
	if got := len(st.List()); got != admitted {
		t.Fatalf("rejected submissions left records: %d jobs listed, %d admitted", got, admitted)
	}
	js := st.Stats()
	if js.Rejected != 1 || js.Submitted != uint64(admitted) || js.QueueCap != 4 {
		t.Fatalf("Stats after rejection = %+v", js)
	}
	close(block)
	st.Close()
	if js := st.Stats(); js.Done != uint64(admitted) || js.Queued != 0 || js.Running != 0 {
		t.Fatalf("Stats after drain = %+v", js)
	}
}

// TestStoreRetainsRecentTerminalJobs checks the retention bound: once more
// than retainTerminal jobs have finished, the oldest records are evicted —
// List shrinks to the retained ones, and the per-job endpoints answer 410
// Gone for an evicted id while keeping 404 for one never issued. Jobs
// cancelled while queued are evicted while still in the pending queue,
// which the runners must skip.
func TestStoreRetainsRecentTerminalJobs(t *testing.T) {
	const total = 600
	block := make(chan struct{})
	srv := NewServer()
	store := NewStore(func(_ context.Context, req JobRequest, _ *metrics.Recorder) (MineResult, error) {
		if req.Algo == "block" {
			<-block
		}
		return MineResult{}, nil
	}, nil, StoreConfig{QueueCap: total})
	srv.AttachJobs(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Job 0 holds the only runner; the next 300 queue behind it and are
	// cancelled there, so the oldest of them are evicted before a runner
	// pops them from the queue.
	if _, err := store.Submit(JobRequest{Algo: "block"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		if _, err := store.Submit(JobRequest{}); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Cancel(i); !ok {
			t.Fatalf("Cancel(%d) found no job", i)
		}
	}
	if n := len(store.List()); n > retainTerminal+1 {
		t.Fatalf("List holds %d jobs, want at most %d terminal plus 1 running", n, retainTerminal)
	}
	close(block)
	for i := 301; i < total; i++ {
		if _, err := store.Submit(JobRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()

	jobs := store.List()
	if len(jobs) != retainTerminal {
		t.Fatalf("List holds %d jobs after %d finished, want %d", len(jobs), total, retainTerminal)
	}
	for i, j := range jobs {
		if want := total - retainTerminal + i; j.ID != want {
			t.Fatalf("List[%d] is job %d, want %d (the most recent, oldest first)", i, j.ID, want)
		}
	}
	if js := store.Stats(); js.Done+js.Cancelled != total {
		t.Fatalf("Stats = %+v, want %d terminal jobs", js, total)
	}

	status := func(method, path string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/jobs/0", http.StatusGone},
		{http.MethodGet, "/jobs/0/events", http.StatusGone},
		{http.MethodDelete, "/jobs/0", http.StatusGone},
		{http.MethodGet, fmt.Sprintf("/jobs/%d", total-1), http.StatusOK},
		{http.MethodGet, fmt.Sprintf("/jobs/%d/events", total-1), http.StatusOK},
		{http.MethodGet, fmt.Sprintf("/jobs/%d", total), http.StatusNotFound},
		{http.MethodGet, "/jobs", http.StatusOK},
	} {
		if got := status(c.method, c.path); got != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, got, c.want)
		}
	}
}
