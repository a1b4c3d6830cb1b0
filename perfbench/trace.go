package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Key identifies the
// request the span belongs to (a sweep cell or a job id); Parent is the
// ID of the span that caused it, 0 for a root.
type span struct {
	ID, Parent int
	Name       string
	Layer      string
	Key        string
	Start, End time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// id reserves a span ID, so children can name a parent that has not
// ended yet. It returns 0 on a nil tracer.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add reserves an ID and records the span under it, returning the ID.
func (t *tracer) add(parent int, name, layer, key string, start, end time.Time) int {
	id := t.id()
	t.record(span{ID: id, Parent: parent, Name: name, Layer: layer, Key: key, Start: start, End: end})
	return id
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part of its interval that its children cover (overlapping
// children are counted once), summed per layer.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End.Sub(s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [start, end].
func covered(start, end time.Time, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto): one complete event per span, one track per layer.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  string         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Sub(t0)) / 1e3,
			Dur: float64(s.End.Sub(s.Start)) / 1e3,
			PID: 1, TID: s.Layer,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "key": s.Key},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
