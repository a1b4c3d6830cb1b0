package main

// Tests for the CLI observability surface: the -trace golden (timing
// normalized the same way the -stats goldens are), the -telemetry-addr
// live endpoints, and the `fpm serve` job API driven through its handler.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fpm"
	"fpm/internal/serve"
	"fpm/internal/telemetry"
)

// normEvent is one trace event with its nondeterministic fields zeroed;
// field order fixes the serialized form for golden comparison.
type normEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// normalizeTrace rewrites a Chrome trace-event file into a deterministic
// golden form: counter samples are dropped (their count depends on run
// duration), timestamps and durations are zeroed (wall-clock), and events
// are re-marshaled one per line with a fixed field order.
func normalizeTrace(t *testing.T, raw []byte) string {
	t.Helper()
	var doc struct {
		TraceEvents []normEvent    `json:"traceEvents"`
		DisplayUnit string         `json:"displayTimeUnit"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v\n%s", err, raw)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "displayTimeUnit %s\n", doc.DisplayUnit)
	meta, err := json.Marshal(doc.OtherData)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "otherData %s\n", meta)
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" {
			continue
		}
		e.Ts = 0
		if e.Dur != nil {
			z := 0.0
			e.Dur = &z
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenTrace pins the -trace output for a sequential run: the track
// metadata and the kernel's first-level subtree spans are deterministic
// once timings are normalized (like the -stats goldens).
func TestGoldenTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out := runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
		"-support", "2", "-algo", "lcm", "-workers", "1", "-count",
		"-trace", traceFile)
	if strings.TrimSpace(out) != "9" {
		t.Fatalf("-count with -trace = %q, want 9", out)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace-lcm.txt", normalizeTrace(t, raw))
}

// TestGoldenTracePartitionedParallel sanity-checks (not golden: scheduler
// spans are nondeterministic) that an out-of-core parallel -trace carries
// the partition track and one track per worker.
func TestTracePartitionedParallelCLI(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	runCLI(t, "-in", filepath.Join("testdata", "small.dat"),
		"-support", "2", "-algo", "eclat", "-partition", "-mem-budget", "1K",
		"-workers", "2", "-count", "-trace", traceFile)
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []normEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[e.Args["name"].(string)] = true
		}
	}
	for _, want := range []string{"partition", "worker 0", "worker 1"} {
		if !tracks[want] {
			t.Errorf("trace missing track %q (saw %v)", want, tracks)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: run() writes stderr from
// another goroutine while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCLITelemetryAddr scrapes a live `fpm -telemetry-addr` run. The input
// is a FIFO, so the CLI blocks with its telemetry server up until the test
// has scraped every endpoint, deterministically — no sleep-and-hope.
func TestCLITelemetryAddr(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "in.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo unavailable: %v", err)
	}

	var stdout bytes.Buffer
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-in", fifo, "-support", "2", "-algo", "lcm",
			"-count", "-telemetry-addr", "127.0.0.1:0"}, &stdout, &stderr)
	}()

	// The CLI prints the bound address before opening the input.
	var base string
	deadline := time.After(10 * time.Second)
	for base == "" {
		if s := stderr.String(); strings.Contains(s, "telemetry listening on ") {
			line := s[strings.Index(s, "http://"):]
			base = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving telemetry: %v\nstderr: %s", err, stderr.String())
		case <-deadline:
			t.Fatalf("no telemetry address announced\nstderr: %s", stderr.String())
		case <-time.After(time.Millisecond):
		}
	}

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	code, body, ct := get("/metrics")
	if code != http.StatusOK || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics = %d, Content-Type %q", code, ct)
	}
	if !strings.Contains(body, "fpm_running 0") || !strings.Contains(body, "fpm_itemsets_emitted_total") {
		t.Fatalf("/metrics body unexpected:\n%s", body)
	}
	code, body, _ = get("/progress")
	var prog telemetry.Progress
	if code != http.StatusOK {
		t.Fatalf("/progress = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if code, _, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// Feed the input; the run completes and tears the server down.
	data, err := os.ReadFile(filepath.Join("testdata", "small.dat"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "9" {
		t.Fatalf("count = %q, want 9", got)
	}
}

// TestServeJobAPI drives the `fpm serve` wiring through its handler: a
// real mining job on testdata/small.dat runs to completion and its result
// matches the known count; invalid jobs fail with a recorded error.
func TestServeJobAPI(t *testing.T) {
	inst := serve.NewInstance(serve.Config{})
	store := inst.Store
	defer store.Shutdown()
	ts := httptest.NewServer(inst.Server.Handler())
	defer ts.Close()

	submit := func(body string) telemetry.Job {
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
		var j telemetry.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	wait := func(id int) telemetry.Job {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for {
			resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, id))
			if err != nil {
				t.Fatal(err)
			}
			var j telemetry.Job
			if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if j.State == "done" || j.State == "failed" {
				return j
			}
			select {
			case <-deadline:
				t.Fatalf("job %d stuck in state %q", id, j.State)
			case <-time.After(time.Millisecond):
			}
		}
	}

	small := filepath.Join("testdata", "small.dat")
	ok := submit(fmt.Sprintf(`{"path":%q,"algo":"lcm","min_support":2}`, small))
	part := submit(fmt.Sprintf(`{"path":%q,"algo":"eclat","min_support":2,"mem_budget":1024,"workers":2}`, small))
	badSupport := submit(fmt.Sprintf(`{"path":%q,"algo":"lcm"}`, small))
	badPath := submit(`{"path":"does-not-exist.dat","algo":"lcm","min_support":2}`)

	if j := wait(ok.ID); j.State != "done" || j.Itemsets != 9 {
		t.Fatalf("in-memory job = %+v, want done with 9 itemsets", j)
	} else if j.Stats == nil || j.Stats.Emitted != 9 || j.Stats.Kernel == "" {
		t.Fatalf("in-memory job stats = %+v", j.Stats)
	}
	if j := wait(part.ID); j.State != "done" || j.Itemsets != 9 {
		t.Fatalf("partitioned job = %+v, want done with 9 itemsets", j)
	} else if j.Stats == nil || j.Stats.Partition == nil || j.Stats.Partition.Chunks < 2 {
		t.Fatalf("partitioned job stats missing partition section: %+v", j.Stats)
	}
	if j := wait(badSupport.ID); j.State != "failed" || !strings.Contains(j.Error, "min_support") {
		t.Fatalf("zero-support job = %+v, want failed", j)
	}
	if j := wait(badPath.ID); j.State != "failed" {
		t.Fatalf("missing-file job = %+v, want failed", j)
	}
}

// TestServeJobTimeoutAndCancel drives the robustness surface of `fpm
// serve` end to end with the real miner: a job with a tiny timeout_ms is
// cancelled by its deadline mid-mine, and a running job dies promptly on
// DELETE /jobs/{id} — both through the context plumbing the kernels poll.
func TestServeJobTimeoutAndCancel(t *testing.T) {
	inst := serve.NewInstance(serve.Config{})
	store := inst.Store
	defer store.Shutdown()
	ts := httptest.NewServer(inst.Server.Handler())
	defer ts.Close()

	// A corpus heavy enough that mining it at support 2 far outlives both
	// the deadline and the DELETE below.
	heavy := filepath.Join(t.TempDir(), "heavy.dat")
	db := fpm.GenerateCorpus(fpm.CorpusConfig{
		Docs: 4000, Vocab: 1500, AvgLen: 20, ZipfS: 1.3,
		Topics: 6, TopicShare: 0.7, TopicPool: 40, Seed: 33,
	})
	if err := fpm.WriteFIMIFile(heavy, db); err != nil {
		t.Fatal(err)
	}

	submit := func(body string) telemetry.Job {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var j telemetry.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	get := func(id int) telemetry.Job {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var j telemetry.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	waitFinal := func(id int) telemetry.Job {
		t.Helper()
		deadline := time.After(60 * time.Second)
		for {
			j := get(id)
			switch j.State {
			case "done", "failed", "cancelled":
				return j
			}
			select {
			case <-deadline:
				t.Fatalf("job %d stuck in state %q", id, j.State)
			case <-time.After(time.Millisecond):
			}
		}
	}

	timed := submit(fmt.Sprintf(`{"path":%q,"algo":"lcm","min_support":2,"timeout_ms":50}`, heavy))
	if j := waitFinal(timed.ID); j.State != "failed" || !strings.Contains(j.Error, "deadline") {
		t.Fatalf("timed-out job = %+v, want failed with deadline error", j)
	}

	victim := submit(fmt.Sprintf(`{"path":%q,"algo":"lcm","min_support":2}`, heavy))
	for get(victim.ID).State != "running" {
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, victim.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%d = %d", victim.ID, resp.StatusCode)
	}
	t0 := time.Now()
	if j := waitFinal(victim.ID); j.State != "cancelled" {
		t.Fatalf("deleted job = %+v, want cancelled", j)
	}
	if lat := time.Since(t0); lat > 5*time.Second {
		t.Fatalf("cancellation took %v", lat)
	}
}
