package telemetry

import (
	"context"
	"time"
)

// Event is one entry in a job's flight recorder: a timestamped, typed
// record of something that happened to the job on its way through the
// store and the serve path. Events are flat and fully typed — no maps, no
// interface{} — so recording one is a struct copy into a preallocated
// ring, cheap enough to leave on for every job. Which optional fields are
// meaningful depends on Type:
//
//	submitted       — job entered the queue
//	admission_held  — head of queue, blocked on the memory budget
//	                  {Estimate, MemUsed, Budget}
//	cache_shed      — admission asked the caches for cold bytes
//	                  {Estimate: bytes still needed, Freed: bytes shed}
//	running         — claimed by a runner {Estimate: admitted charge}
//	dataset_cache   — dataset acquire {Outcome: hit|miss|coalesced}
//	result_cache    — result cache {Outcome: hit|store|subsume}
//	mine_start      — kernel execution began (after cache consultation)
//	mine_end        — kernel execution returned
//	retry           — a transient mine failure will be retried after
//	                  backoff {Attempt, Error}
//	terminal        — job reached a final state
//	                  {State, Error, Itemsets, PeakBytes}
type Event struct {
	Job int `json:"job"`
	// Seq orders events within one job; gaps after a drop are visible as
	// EventLog.Dropped, not as missing sequence numbers.
	Seq  uint64    `json:"seq"`
	TS   time.Time `json:"ts"`
	Type string    `json:"type"`

	Estimate  int64  `json:"estimate,omitempty"`
	MemUsed   int64  `json:"mem_used,omitempty"`
	Budget    int64  `json:"budget,omitempty"`
	Freed     int64  `json:"freed,omitempty"`
	Outcome   string `json:"outcome,omitempty"`
	State     string `json:"state,omitempty"`
	Error     string `json:"error,omitempty"`
	Itemsets  int    `json:"itemsets,omitempty"`
	PeakBytes int64  `json:"peak_bytes,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
}

// EventLog is the retrievable view of one job's flight recorder.
type EventLog struct {
	Job int `json:"job"`
	// Dropped counts events lost to the ring bound (oldest first); the
	// surviving Events are always the most recent ones.
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// DefaultEventCap bounds each job's event ring when StoreConfig.EventCap
// is zero. Sixteen store-level events cover any admission saga; the rest
// is headroom for serve-path cache events on churny jobs.
const DefaultEventCap = 64

// eventRing is a bounded drop-oldest buffer of one job's events. All
// access is under Store.mu.
type eventRing struct {
	buf     []Event
	cap     int
	start   int
	dropped uint64
	seq     uint64
}

func newEventRing(cap int) *eventRing {
	return &eventRing{cap: cap}
}

func (r *eventRing) append(ev Event) Event {
	ev.Seq = r.seq
	r.seq++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return ev
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % r.cap
	r.dropped++
	return ev
}

// lastType reports the most recent event's type ("" when empty); used to
// collapse runs of identical admission_held events while a blocked head
// is repeatedly woken and re-parked.
func (r *eventRing) lastType() string {
	if len(r.buf) == 0 {
		return ""
	}
	if len(r.buf) < r.cap {
		return r.buf[len(r.buf)-1].Type
	}
	return r.buf[(r.start+r.cap-1)%r.cap].Type
}

// snapshot returns the ring's events oldest-first.
func (r *eventRing) snapshot() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// emitterKey carries a per-job emit function through the mining context,
// so the serve layer can record cache and kernel events into the job's
// ring without importing the store's internals (and without the store
// importing serve — the same inversion as MineFunc).
type emitterKey struct{}

// WithEmitter returns a context carrying emit; the store installs it on
// each job's mining context.
func WithEmitter(ctx context.Context, emit func(Event)) context.Context {
	return context.WithValue(ctx, emitterKey{}, emit)
}

// Emit records an event into the flight recorder of the job whose mining
// context is ctx. Only Type and the optional payload fields are read;
// Job, Seq and TS are stamped by the recorder. No-op when ctx carries no
// emitter (direct library use, tests).
func Emit(ctx context.Context, ev Event) {
	if emit, ok := ctx.Value(emitterKey{}).(func(Event)); ok {
		emit(ev)
	}
}

// Events returns a copy of the job's flight-recorder log, oldest first.
// The bool reports whether the id exists and is retained.
func (st *Store) Events(id int) (EventLog, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	job := st.jobLocked(id)
	if job == nil {
		return EventLog{}, false
	}
	r := job.events
	return EventLog{Job: id, Dropped: r.dropped, Events: r.snapshot()}, true
}

// emitLocked stamps ev with the job's identity, sequence number and the
// current time, appends it to the job's ring and forwards it to the
// configured sink. Callers hold st.mu; the sink therefore runs under the
// store lock and must be fast and must not call back into the Store.
func (st *Store) emitLocked(job *Job, ev Event) {
	ev.Job = job.ID
	ev.TS = time.Now()
	ev = job.events.append(ev)
	if st.eventSink != nil {
		st.eventSink(ev)
	}
}

// emitJob is emitLocked behind the lock, for emissions originating
// outside the store's critical sections (the context emitter used by the
// serve path while mining). An emission for an evicted job is dropped.
func (st *Store) emitJob(id int, ev Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if job := st.jobLocked(id); job != nil {
		st.emitLocked(job, ev)
	}
}
