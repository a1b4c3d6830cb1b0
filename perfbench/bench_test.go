package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"fpm"
	"fpm/internal/servecache"
	"fpm/internal/telemetry"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p, v   float64
		beyond int
		ok     bool
		why    string
	}{
		{1000, 99, 990, 10, true, "p99 leaves exactly 10 of 1000 beyond"},
		{999, 90, 900, 99, true, "p99 of 999 leaves 9 beyond, so p90"},
		{100000, 99.99, 99990, 10, true, "p99.99 of 10^5 leaves 10 beyond"},
		{20, 50, 10, 10, true, "the median of 20 leaves 10 beyond"},
		{19, 0, 0, 0, false, "no ladder percentile leaves 10 of 19 beyond"},
	}
	for _, c := range cases {
		p, v, beyond, ok := tail(seq(c.n))
		if p != c.p || v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d (%s): tail = p%g %g beyond=%d ok=%v, want p%g %g beyond=%d ok=%v",
				c.n, c.why, p, v, beyond, ok, c.p, c.v, c.beyond, c.ok)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if p := percentile(seq(100), 99); p != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", p)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "job", Layer: "bench", Start: at(0), End: at(100)},
		// Two overlapping children cover [10, 60]; a third runs past the
		// parent's end and is clipped to [90, 100].
		{ID: 2, Parent: 1, Name: "a", Layer: "telemetry", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Layer: "servecache", Start: at(30), End: at(60)},
		{ID: 4, Parent: 1, Name: "c", Layer: "telemetry", Start: at(90), End: at(120)},
		// A grandchild inside b.
		{ID: 5, Parent: 3, Name: "d", Layer: "lcm", Start: at(35), End: at(45)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":      40 * time.Millisecond, // 100 − |[10,60] ∪ [90,100]|
		"telemetry":  60 * time.Millisecond, // a (30) + c (30)
		"servecache": 20 * time.Millisecond, // b (30) − d (10)
		"lcm":        10 * time.Millisecond,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestJobPhasesFromTimeline(t *testing.T) {
	t0 := time.Unix(0, 0)
	ev := func(ms int, typ, outcome string) telemetry.Event {
		return telemetry.Event{TS: t0.Add(time.Duration(ms) * time.Millisecond), Type: typ, Outcome: outcome}
	}
	cold := []telemetry.Event{
		ev(0, "submitted", ""), ev(1, "running", ""), ev(3, "dataset_cache", "miss"),
		ev(4, "mine_start", ""), ev(10, "mine_end", ""), ev(11, "result_cache", "store"), ev(13, "terminal", ""),
	}
	want := []string{"queue telemetry 1ms", "run serve 12ms", "dataset acquire servecache 2ms",
		"kernel eclat 6ms", "result insert servecache 1ms", "finish telemetry 2ms"}
	var got []string
	for _, p := range jobPhases(cold, "eclat") {
		got = append(got, fmt.Sprintf("%s %s %v", p.name, p.layer, p.end.Sub(p.start)))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cold job phases = %v, want %v", got, want)
	}

	if p := jobPhases(cold[:len(cold)-1], "eclat"); p != nil {
		t.Errorf("timeline without terminal gave phases %v", p)
	}
}

func TestDigestComparesContent(t *testing.T) {
	listing := []fpm.Itemset{
		{Items: []fpm.Item{1}, Support: 9},
		{Items: []fpm.Item{2}, Support: 7},
		{Items: []fpm.Item{1, 2}, Support: 5},
	}
	// The same itemsets in another order, items unsorted: same answer.
	reordered := []fpm.Itemset{
		{Items: []fpm.Item{2, 1}, Support: 5},
		{Items: []fpm.Item{2}, Support: 7},
		{Items: []fpm.Item{1}, Support: 9},
	}
	// Right count, one wrong support.
	wrong := []fpm.Itemset{
		{Items: []fpm.Item{1}, Support: 9},
		{Items: []fpm.Item{2}, Support: 7},
		{Items: []fpm.Item{1, 2}, Support: 6},
	}
	if digest(listing) != digest(reordered) {
		t.Error("digest depends on listing order")
	}
	if digest(listing) == digest(wrong) {
		t.Error("digest accepts a listing with the right count but a wrong support")
	}
}

func TestShuffledCopyKeepsListingButNotIdentity(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	if err := fpm.WriteFIMI(&buf, permute(smallPreset.gen(), rng, true)); err != nil {
		t.Fatal(err)
	}
	paths, err := writeShuffledCopies(dir, "small", buf.Bytes(), 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mineOracle(corpus{Name: "base", Path: paths[0], Support: smallPreset.support})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mineOracle(corpus{Name: "copy", Path: paths[1], Support: smallPreset.support})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("shuffled copy mines to %+v, base to %+v", got, want)
	}
	idBase, err := servecache.FileIdentity(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	idCopy, err := servecache.FileIdentity(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if idBase == idCopy {
		t.Errorf("shuffled copy shares the base's identity %v", idBase)
	}
}

func TestPermuteKeepsTheWorkload(t *testing.T) {
	db := smallPreset.gen()
	a := permute(db, rand.New(rand.NewSource(1)), true)
	b := permute(db, rand.New(rand.NewSource(2)), true)
	sa, err := fpm.Mine(a, fpm.LCM, 0, smallPreset.support)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := fpm.Mine(b, fpm.LCM, 0, smallPreset.support)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != len(sb) || len(sa) == 0 {
		t.Errorf("seeds 1 and 2 mine %d and %d itemsets; a relabeling must keep the count", len(sa), len(sb))
	}
	if digest(sa) == digest(sb) {
		t.Error("seeds 1 and 2 generated the same listing")
	}
}

// The metric lists the binary prints must be the ones BENCHMARK.json
// declares, in name and unit.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []declared) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), binary %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no setup", w.Name)
		}
	}
}
