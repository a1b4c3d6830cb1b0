package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer is one or two outliers, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (0 when xs is
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// median is the middle value of xs, the mean of the two middle values
// for an even count (0 when xs is empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of tailLadder that has at least
// minBeyond samples above its nearest rank. ok is false when even the
// median has fewer than minBeyond samples beyond it.
func tail(xs []float64) (p, value float64, beyond int, ok bool) {
	n := len(xs)
	s := sorted(xs)
	for _, p := range tailLadder {
		r := rank(p, n)
		if n-r >= minBeyond {
			return p, s[r-1], n - r, true
		}
	}
	return 0, 0, 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// metric is one reported figure. N is the number of samples behind the
// value; Note says how it was formed or why the layer did no work.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
}

// report collects a run's metrics in the order they are added.
type report struct {
	metrics []metric
	index   map[string]int
}

func newReport() *report { return &report{index: map[string]int{}} }

// add records a metric, replacing an earlier one of the same name.
func (r *report) add(name string, value float64, unit string, n int, note string) {
	m := metric{Name: name, Value: value, Unit: unit, N: n, Note: note}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// dist records the median of xs under name.
func (r *report) dist(name string, xs []float64, unit, note string) {
	r.add(name, median(xs), unit, len(xs), note)
}

// tailOf records the tail percentile of xs under name, stating which
// percentile it is and how many samples lie beyond it.
func (r *report) tailOf(name string, xs []float64, unit string) {
	p, v, beyond, ok := tail(xs)
	if !ok {
		r.add(name, 0, unit, len(xs), fmt.Sprintf("n/a: fewer than %d samples beyond the median", minBeyond))
		return
	}
	r.add(name, v, unit, len(xs), fmt.Sprintf("p%g, %d samples beyond", p, beyond))
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// writeTable prints every metric by name, one per line, with unit and
// sample count.
func (r *report) writeTable(w io.Writer) {
	byName := append([]metric(nil), r.metrics...)
	sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })
	for _, m := range byName {
		fmt.Fprintf(w, "  %-36s %16.6g %-8s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
}

// declared is one metric of BENCHMARK.json.
type declared struct {
	name, unit string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the final JSON line carrying exactly the declared
// metrics. A declared metric the run did not produce is an error: the
// line must be complete or not printed at all.
func resultLine(r *report, want []declared, correct bool, attempted, failed int) ([]byte, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, d := range want {
		m, ok := r.get(d.name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		res.Metrics[d.name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(res)
}
