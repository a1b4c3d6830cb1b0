// Package eclat implements the Eclat kernel studied in paper §4.2: a
// depth-first miner over a vertical, dense bit-matrix database. Columns
// initially represent items' occurrences over transactions; the AND of two
// columns is the occurrence vector of the union of their itemsets, and
// counting ones computes support. 98% of the original code's time is spent
// in this AND + count loop, so the applicable patterns (Table 4) are
//
//	P1 Lex  — lexicographic ordering clusters the 1s of frequent items at
//	          the start of the vectors and enables 0-escaping (skipping
//	          all-zero head/tail words via conservative 1-ranges);
//	P8 SIMD — replaces the baseline per-byte table-lookup popcount (an
//	          indirect load that defeats vectorization) with word-parallel
//	          computational popcount, fused with the AND.
package eclat

import (
	"fpm/internal/bitvec"
	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/lexorder"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/trace"
)

// Options selects the tuning patterns applied by the miner. Patterns
// outside mine.Applicable(mine.Eclat) are ignored.
type Options struct {
	Patterns mine.PatternSet
	// ExactRanges switches 0-escaping from the paper's conservative
	// intersected ranges to exact range recomputation after every AND
	// (ablation E9.1). Only meaningful when Patterns has Lex.
	ExactRanges bool
	// Metrics, when non-nil, receives run-time counters: nodes expanded
	// (class members extended), support countings (AND+count operations),
	// itemsets emitted and candidate prunes. Nil disables recording at the
	// cost of one nil-check per counter site.
	Metrics *metrics.Recorder
	// Trace, when non-nil, receives coarse kernel spans: one span per
	// first-level subtree, on sequential runs only (under the scheduler the
	// worker task spans own the timeline). The track is cached on the Miner
	// and reused across Mine calls, so a tracing Miner must not run
	// concurrent Mines.
	Trace *trace.Recorder
	// Cancel, when non-nil, is polled at every class-recursion node: once
	// it trips, the recursion unwinds and Mine returns Cancel.Err(). Nil
	// disables the check at the cost of one nil test per node.
	Cancel *cancel.Flag
}

// Miner is an Eclat frequent itemset miner.
type Miner struct {
	opts Options
	tk   *trace.Track
}

// track lazily creates the miner's kernel-span track.
func (m *Miner) track() *trace.Track {
	if m.opts.Trace == nil {
		return nil
	}
	if m.tk == nil {
		m.tk = m.opts.Trace.NewTrack(m.Name())
	}
	return m.tk
}

// New returns an Eclat miner with the given options.
func New(opts Options) *Miner { return &Miner{opts: opts} }

// Name implements mine.Miner.
func (m *Miner) Name() string { return "eclat(" + m.opts.Patterns.String() + ")" }

// node is one element of the DFS stack's current equivalence class.
type node struct {
	item    dataset.Item
	vec     *bitvec.Vector
	rng     bitvec.OneRange
	support int
}

// Mine implements mine.Miner.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return m.MineSplit(db, minSupport, c, nil)
}

// MineSplit implements mine.Splitter. It builds the vertical bit matrix
// once, over the whole database, and runs the depth-first class recursion
// over it; each equivalence class produced by extension may be offered to
// sp (nil mines sequentially, as Mine does), weighted by the summed
// supports of its members. That sum is not a different unit from the horizontal
// kernels': support(prefix ∪ {e}) is the number of occurrences of e in the
// transactions containing the prefix, so the class weight is the
// item-occurrence count of the class's (frequent) items in the subtree's
// conceptual projected database — the same frequent-items occurrence
// measure mine.SubtreeWeight reports for LCM's conditional databases and
// dataset.ProjectedWeight approximates for the first-level driver, so one
// shared spawn cutoff gates comparable work across kernels (modulo LCM's
// RmDupTrans, which shrinks its count by merging duplicate transactions).
// A stolen class carries only vectors its members own, a prefix copy and a
// run snapshot taken before Offer; the root matrix and the lex ordering it
// shares with the spawning recursion are read-only once built.
func (m *Miner) MineSplit(db *dataset.DB, minSupport int, c mine.Collector, sp mine.Spawner) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}

	lex := m.opts.Patterns.Has(mine.Lex)
	simd := m.opts.Patterns.Has(mine.SIMD)

	work := db
	var ord *lexorder.Ordering
	if lex {
		work, ord = lexorder.Apply(db)
	}

	n := work.Len()
	// Build the vertical bit matrix for frequent items only.
	freq := work.Frequencies()
	var roots []node
	vecs := make(map[dataset.Item]*bitvec.Vector)
	for it := dataset.Item(0); int(it) < work.NumItems; it++ {
		if freq[it] >= minSupport {
			vecs[it] = bitvec.New(n)
		}
	}
	for ti, t := range work.Tx {
		for _, it := range t {
			if v, ok := vecs[it]; ok {
				v.Set(ti)
			}
		}
	}
	for it := dataset.Item(0); int(it) < work.NumItems; it++ {
		v, ok := vecs[it]
		if !ok {
			continue
		}
		r := bitvec.OneRange{Lo: 0, Hi: v.Words()}
		if lex {
			// "The ranges are initialized by computing the first and last
			// 1 in each item bit-vector" (§4.2).
			r = v.Range()
		}
		roots = append(roots, node{item: it, vec: v, rng: r, support: freq[it]})
	}

	andCount := func(dst, a, b *bitvec.Vector, r bitvec.OneRange) (int, bitvec.OneRange) {
		if lex {
			if m.opts.ExactRanges {
				return bitvec.AndCountRangeExact(dst, a, b, r)
			}
			return bitvec.AndCountRange(dst, a, b, r), r
		}
		if simd {
			return bitvec.AndCount(dst, a, b), r
		}
		return bitvec.AndCountTable(dst, a, b), r
	}
	// With lex 0-escaping but without SIMD, counting inside the range
	// still uses the baseline table lookups, so the two patterns compose
	// independently.
	if lex && !simd && !m.opts.ExactRanges {
		andCount = func(dst, a, b *bitvec.Vector, r bitvec.OneRange) (int, bitvec.OneRange) {
			return bitvec.AndCountRangeTable(dst, a, b, r), r
		}
	}

	r := &run{n: n, minSupport: minSupport, andCount: andCount, ord: ord, sp: sp,
		cf: m.opts.Cancel, rec: m.opts.Metrics, met: m.opts.Metrics.NewLocal()}
	if sp == nil {
		r.tk = m.track()
	}
	// The root supports were just counted from the horizontal scan, one per
	// alphabet item.
	r.met.Support(work.NumItems)
	r.mine(roots, make([]dataset.Item, 0, 32), c)
	m.opts.Metrics.Flush(r.met)
	return m.opts.Cancel.Err()
}

// run carries the mining context of one goroutine's recursion. A stolen
// class gets a copy taken on the spawning goroutine before Offer (see
// descend), with its own sp, counter block and scratch, so recursion state
// lives in the arguments of mine.
type run struct {
	n          int
	minSupport int
	andCount   func(dst, a, b *bitvec.Vector, r bitvec.OneRange) (int, bitvec.OneRange)
	ord        *lexorder.Ordering
	sp         mine.Spawner
	cf         *cancel.Flag
	rec        *metrics.Recorder
	met        *metrics.Local // owned by this run's goroutine; stolen tasks get their own
	tk         *trace.Track   // set on sequential runs only; stolen tasks never trace
	// scratch receives each candidate's AND. A survivor takes the vector
	// as its own and scratch is reallocated on the next candidate, so
	// failing candidates (most of them) allocate nothing.
	scratch *bitvec.Vector
}

func (r *run) emit(c mine.Collector, items []dataset.Item, support int) {
	if r.ord != nil {
		c.Collect(r.ord.Restore(items), support)
	} else {
		c.Collect(items, support)
	}
}

// aborted reports whether the class recursion should unwind (run cancel
// flag tripped or the scheduler aborted).
func (r *run) aborted() bool {
	return r.cf.Cancelled() || (r.sp != nil && r.sp.Cancelled())
}

// mine enumerates the subtree of one equivalence class. prefix is owned by
// the caller up to its current length; appends may reallocate freely.
func (r *run) mine(class []node, prefix []dataset.Item, c mine.Collector) {
	if r.aborted() {
		return
	}
	root := len(prefix) == 0
	for i, nd := range class {
		var ts int64
		if root && r.tk != nil {
			ts = r.tk.Begin()
		}
		r.met.Node()
		prefix = append(prefix, nd.item)
		r.met.Emit()
		r.emit(c, prefix, nd.support)
		var next []node
		weight := 0
		for _, other := range class[i+1:] {
			rng := nd.rng.Intersect(other.rng)
			var sup int
			if rng.Empty() {
				// 0-escaping skipped the AND entirely: a prune without a
				// support counting.
				sup = 0
			} else {
				if r.scratch == nil {
					r.scratch = bitvec.New(r.n)
				}
				r.met.Support(1)
				sup, rng = r.andCount(r.scratch, nd.vec, other.vec, rng)
			}
			if sup < r.minSupport {
				r.met.Prune()
			}
			if sup >= r.minSupport {
				// Words outside rng keep stale bits from earlier candidates;
				// every later AND is restricted to a range inside rng.
				next = append(next, node{item: other.item, vec: r.scratch, rng: rng, support: sup})
				r.scratch = nil
				// Summed supports = occurrences of the surviving items in
				// the child's projected database: the occurrence unit every
				// spawn cutoff in this codebase is expressed in (see the
				// MineSplit doc comment).
				weight += sup
			}
		}
		if len(next) > 0 {
			r.descend(next, weight, prefix, c)
		}
		prefix = prefix[:len(prefix)-1]
		if root && r.tk != nil {
			r.tk.End(ts, "subtree", trace.CatKernel, int64(nd.item))
		}
	}
}

// descend recurses into the class sequentially unless the scheduler
// accepts it as a stealable task. The class slice and its vectors are
// owned by this extension step (each survivor took its vector out of the
// scratch), so handing them to another worker is safe; only the prefix
// needs copying.
func (r *run) descend(next []node, weight int, prefix []dataset.Item, c mine.Collector) {
	if r.sp != nil && r.sp.WouldSteal(weight) {
		pcopy := append([]dataset.Item(nil), prefix...)
		// Snapshot the run here, on the spawning goroutine: copying *r
		// inside the task would race with this recursion's scratch use.
		snap := *r
		snap.scratch = nil
		if r.sp.Offer(weight, func(tc mine.Collector, sp mine.Spawner) error {
			nr := snap
			nr.sp = sp
			// A stolen class runs on another worker: it must not share the
			// spawning recursion's counter block.
			nr.met = nr.rec.NewLocal()
			nr.mine(next, pcopy, tc)
			nr.rec.Flush(nr.met)
			return nil
		}) {
			return
		}
	}
	r.mine(next, prefix, c)
}
