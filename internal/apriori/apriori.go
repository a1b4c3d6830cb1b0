// Package apriori implements the classic breadth-first Apriori algorithm
// (Agrawal & Srikant, VLDB'94). The paper excludes breadth-first search
// from its tuning study "because the depth-first search algorithms are
// generally considered to be more efficient", but cites it as the baseline
// algorithm family; it is provided here so that claim is checkable (see
// BenchmarkTable3Apriori) and as a reference miner with a completely
// different enumeration strategy for cross-validation.
package apriori

import (
	"sort"

	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/metrics"
	"fpm/internal/mine"
)

// Options configures an Apriori miner; the zero value mines without
// counters or cancellation.
type Options struct {
	// Metrics, when non-nil, receives run-time counters: nodes expanded
	// (levels counted), support countings (item and candidate supports
	// counted), itemsets emitted and candidate prunes. Nil disables
	// recording at the cost of one nil-check per counter site.
	Metrics *metrics.Recorder
	// Cancel, when non-nil, is polled once per transaction of every
	// counting scan and once per outer row of candidate generation: once
	// it trips, Mine returns Cancel.Err(). Nil disables the check.
	Cancel *cancel.Flag
}

// Miner is a level-wise Apriori frequent itemset miner.
type Miner struct{ opts Options }

// New returns an Apriori miner with the given options.
func New(opts Options) *Miner { return &Miner{opts: opts} }

// Name implements mine.Miner.
func (*Miner) Name() string { return "apriori" }

// Mine implements mine.Miner: generate candidates level by level, prune by
// the downward-closure property, and count supports with one database scan
// per level.
func (m *Miner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	if minSupport < 1 {
		return mine.ErrBadSupport(minSupport)
	}
	if db.Len() == 0 {
		return nil
	}
	cf := m.opts.Cancel
	met := m.opts.Metrics.NewLocal()
	defer m.opts.Metrics.Flush(met)

	// Level 1: frequent items.
	met.Node()
	freq := db.Frequencies()
	var level [][]dataset.Item
	for it := dataset.Item(0); int(it) < db.NumItems; it++ {
		level = collect(level, []dataset.Item{it}, freq[it], minSupport, c, met)
	}

	for k := 2; len(level) > 0; k++ {
		cands := generateCandidates(level, cf)
		if len(cands) == 0 {
			return cf.Err()
		}
		met.Node()
		counts := make([]int, len(cands))
		for _, t := range db.Tx {
			if cf.Cancelled() {
				return cf.Err()
			}
			if len(t) < k {
				continue
			}
			for ci, cand := range cands {
				if dataset.ContainsAll(t, cand) {
					counts[ci]++
				}
			}
		}
		var next [][]dataset.Item
		for ci, cand := range cands {
			next = collect(next, cand, counts[ci], minSupport, c, met)
		}
		level = next
	}
	return nil
}

// collect accounts for one counted itemset: a frequent one is emitted and
// appended to the next level, one with support in (0, minSupport) is a
// prune.
func collect(next [][]dataset.Item, set []dataset.Item, support, minSupport int, c mine.Collector, met *metrics.Local) [][]dataset.Item {
	if support == 0 {
		return next
	}
	met.Support(1)
	if support < minSupport {
		met.Prune()
		return next
	}
	met.Emit()
	c.Collect(set, support)
	return append(next, set)
}

// generateCandidates joins frequent (k-1)-itemsets sharing a (k-2)-prefix
// and prunes candidates with an infrequent (k-1)-subset — the classic
// apriori-gen. It returns nil once cf trips.
func generateCandidates(level [][]dataset.Item, cf *cancel.Flag) [][]dataset.Item {
	// Index the previous level for the prune step.
	prev := make(map[string]bool, len(level))
	for _, s := range level {
		prev[mine.Key(s)] = true
	}
	// The level is produced in lexicographic order (maintained
	// inductively); the join pairs sets with equal (k-2)-prefixes.
	sort.Slice(level, func(a, b int) bool { return lessItems(level[a], level[b]) })

	var out [][]dataset.Item
	k1 := len(level[0])
	for i := 0; i < len(level); i++ {
		if cf.Cancelled() {
			return nil
		}
		for j := i + 1; j < len(level); j++ {
			if !samePrefix(level[i], level[j], k1-1) {
				break
			}
			cand := make([]dataset.Item, k1+1)
			copy(cand, level[i])
			cand[k1] = level[j][k1-1]
			if !pruned(cand, prev) {
				out = append(out, cand)
			}
		}
	}
	return out
}

// pruned reports whether any (k-1)-subset of cand is missing from the
// previous level.
func pruned(cand []dataset.Item, prev map[string]bool) bool {
	sub := make([]dataset.Item, 0, len(cand)-1)
	for drop := range cand {
		sub = sub[:0]
		sub = append(sub, cand[:drop]...)
		sub = append(sub, cand[drop+1:]...)
		if !prev[mine.Key(sub)] {
			return true
		}
	}
	return false
}

func samePrefix(a, b []dataset.Item, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessItems(a, b []dataset.Item) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
