package fpm

// Tests for the public tracing surface: fpm.WithTrace must produce a
// loadable Chrome trace-event file with one track per scheduler worker
// and the partition-phase track, without changing the mined results; a
// failing trace sink must never lose the mining results; and a concurrent
// scrape of the run's MetricsRecorder must observe monotonically
// non-decreasing counters (run under -race in CI).

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fpm/internal/fimi"
)

// traceDoc decodes the trace-event JSON object enough to inspect tracks.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Tid  int            `json:"tid"`
		Dur  *float64       `json:"dur"`
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]any `json:"otherData"`
}

func decodeTraceDoc(t *testing.T, b []byte) traceDoc {
	t.Helper()
	var d traceDoc
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	return d
}

// trackNames maps tid → thread_name for every announced track.
func (d traceDoc) trackNames() map[int]string {
	names := map[int]string{}
	for _, e := range d.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			names[e.Tid] = e.Args["name"].(string)
		}
	}
	return names
}

// spansOn counts complete spans per track name.
func (d traceDoc) spansOn() map[string]int {
	names := d.trackNames()
	n := map[string]int{}
	for _, e := range d.TraceEvents {
		if e.Ph == "X" {
			n[names[e.Tid]]++
		}
	}
	return n
}

// The acceptance criterion: a partitioned parallel run traced through the
// public API yields at least one span-bearing track per scheduler worker
// plus the partition-phase track, and the results match an untraced run.
func TestTracePartitionedParallelHasWorkerAndPartitionTracks(t *testing.T) {
	db := testDB()
	path := filepath.Join(t.TempDir(), "db.dat")
	if err := WriteFIMIFile(path, db); err != nil {
		t.Fatal(err)
	}
	const minsup, workers = 20, 4
	// The resident chunk is capped at budget/8 (see internal/partition), so
	// a third of the file's estimated resident size forces a few chunks
	// while keeping each chunk large enough for SON's scaled threshold.
	budget := 8 * fimi.DBBytes(db) / 3

	want, _, err := MinePartitioned(path, LCM, 0, minsup, budget, workers, ParallelCutoff(64))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	got, snap, err := MinePartitioned(path, LCM, 0, minsup, budget, workers,
		ParallelCutoff(64), WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !resultMap(got).Equal(resultMap(want)) {
		t.Fatal("tracing changed the mined results")
	}
	if snap.Chunks < 2 {
		t.Fatalf("budget did not force chunking (%d chunks); test is vacuous", snap.Chunks)
	}

	d := decodeTraceDoc(t, buf.Bytes())
	if got := d.OtherData["tool"]; got != "fpm" {
		t.Fatalf("otherData.tool = %v", got)
	}
	spans := d.spansOn()
	for i := 0; i < workers; i++ {
		name := "worker " + string(rune('0'+i))
		if spans[name] == 0 {
			t.Errorf("no spans on track %q (tracks: %v)", name, d.trackNames())
		}
	}
	if spans["partition"] == 0 {
		t.Fatalf("no spans on the partition track (tracks: %v)", d.trackNames())
	}
	// The partition track must carry the named phases.
	names := d.trackNames()
	phases := map[string]bool{}
	for _, e := range d.TraceEvents {
		if e.Ph == "X" && names[e.Tid] == "partition" {
			phases[e.Cat] = true
			if e.Name == "sizing scan" || e.Name == "pass 2 recount" {
				phases[e.Name] = true
			}
		}
	}
	for _, want := range []string{"sizing scan", "pass 2 recount", "chunk"} {
		if !phases[want] {
			t.Errorf("partition track missing %q spans (saw %v)", want, phases)
		}
	}
}

// A sequential in-memory traced run carries the kernel's own track.
func TestTraceSequentialKernelTrack(t *testing.T) {
	db := testDB()
	var buf bytes.Buffer
	sets, _, err := WithMetrics(db, Eclat, Applicable(Eclat), 20, 1, WithTrace(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatal("no itemsets mined")
	}
	d := decodeTraceDoc(t, buf.Bytes())
	spans := d.spansOn()
	found := false
	for name, n := range spans {
		if n > 0 && name != "partition" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no kernel spans recorded (tracks: %v)", d.trackNames())
	}
	// Counter series must be present (sampled at least once at Stop).
	sawCounter := false
	for _, e := range d.TraceEvents {
		if e.Ph == "C" {
			sawCounter = true
		}
	}
	if !sawCounter {
		t.Fatal("no counter series in trace")
	}
}

// brokenWriter fails after the first write, like a disk filling mid-flush.
type brokenWriter struct{ writes int }

func (b *brokenWriter) Write(p []byte) (int, error) {
	b.writes++
	if b.writes > 1 {
		return 0, errSink
	}
	return len(p), nil
}

var errSink = jsonErr("trace sink full")

type jsonErr string

func (e jsonErr) Error() string { return string(e) }

// A failing trace sink must not lose the mining results: WithMetrics
// returns the full itemsets and snapshot alongside the flush error.
func TestTraceWriterFailureKeepsResults(t *testing.T) {
	db := testDB()
	want, _, err := WithMetrics(db, LCM, 0, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := &brokenWriter{}
	got, snap, err := WithMetrics(db, LCM, 0, 20, 4, WithTrace(w))
	if err == nil {
		t.Fatal("flush error not surfaced")
	}
	if !resultMap(got).Equal(resultMap(want)) {
		t.Fatal("trace sink failure lost or changed the mining results")
	}
	if snap.Emitted != uint64(len(got)) {
		t.Fatalf("snapshot not populated despite completed mine: %+v", snap)
	}
}

// Concurrent scrapes during a live parallel partitioned mine: every
// counter a scrape can observe must be monotonically non-decreasing run
// over run, and the final scrape must agree with the returned snapshot.
// CI runs this under -race to check Snapshot's synchronisation.
func TestConcurrentSnapshotDuringPartitionedMine(t *testing.T) {
	db := testDB()
	path := filepath.Join(t.TempDir(), "db.dat")
	if err := WriteFIMIFile(path, db); err != nil {
		t.Fatal(err)
	}
	rec := NewMetricsRecorder()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes int
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev Snapshot
		for {
			s := rec.Snapshot()
			scrapes++
			if s.Nodes < prev.Nodes || s.Emitted < prev.Emitted || s.Supports < prev.Supports {
				t.Errorf("counters regressed between scrapes:\nprev %+v\nnow  %+v", prev, s)
				return
			}
			if pt, pp := s.Partition, prev.Partition; pt != nil && pp != nil {
				if pt.Chunks < pp.Chunks || pt.BytesPass1 < pp.BytesPass1 {
					t.Errorf("partition progress regressed:\nprev %+v\nnow  %+v", pp, pt)
					return
				}
			}
			prev = s
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	sets, _, err := MinePartitioned(path, LCM, 0, 20, 8*fimi.DBBytes(db)/3, 4,
		ParallelCutoff(64), ParallelMetrics(rec))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	final := rec.Snapshot()
	if final.Emitted == 0 || len(sets) == 0 {
		t.Fatal("run produced nothing to observe")
	}
	if scrapes == 0 {
		t.Fatal("scraper never ran")
	}
}
