package fpgrowth

import (
	"slices"

	"fpm/internal/dataset"
)

// compactTree is the P2 data-structure-adapted layout: nodes live in one
// contiguous arena and link by 32-bit indices, shrinking the node from the
// pointer layout's 48 bytes (plus per-node allocator overhead) to 24 bytes
// and removing all per-node allocations. This is the Go analogue of the
// paper's differential item-ID encoding — the mechanism differs (indices
// instead of byte deltas, since Go favours dense arenas over unaligned byte
// packing) but the optimization objective is the same: "this reduces the
// node size and memory requirements dramatically".
//
// With aggregate set, build additionally computes P3 supernodes: for every
// node, the items of its next aggSpan-1 ancestors stored inline in a
// contiguous side array plus a skip index to the ancestor beyond them, so
// the conditional-pattern-base walk reads one contiguous record per
// superlevel instead of dereferencing one node per level. Shared ancestors
// are replicated into each descendant's segment, which "partially offsets
// the compression achieved by using a prefix tree representation" exactly
// as the paper notes.
type compactTree struct {
	aggregate bool
	aggSpan   int
	prefetch  bool

	nodes []cnode
	// head[i]/sup[i] index item i's node-link chain head and support; the
	// header table is a dense array (items are dense ranks), kept at the
	// largest alphabet built so far. Entries of items outside present
	// are always nilIdx and 0, so a rebuild only resets present ones.
	head []int32
	sup  []int32

	// Aggregation side arrays, indexed by node: seg holds each node's
	// inline ancestor items back-to-back; skip is the arena index of the
	// ancestor after the inline segment (or nilIdx).
	segOff  []int32
	segLen  []int8
	segs    []dataset.Item
	skip    []int32
	present []dataset.Item
	pathBuf []dataset.Item
}

const nilIdx = int32(-1)

type cnode struct {
	item    dataset.Item
	count   int32
	parent  int32
	child   int32
	sibling int32
	next    int32
}

func (t *compactTree) build(base []weightedTx, numItems int) {
	// Reset the previous build: only its present items dirtied the header
	// table, so clearing them is O(previous tree), not O(alphabet).
	for _, it := range t.present {
		t.head[it] = nilIdx
		t.sup[it] = 0
	}
	t.present = t.present[:0]
	if len(t.head) < numItems {
		t.head = make([]int32, numItems)
		t.sup = make([]int32, numItems)
		for i := range t.head {
			t.head[i] = nilIdx
		}
	}
	t.nodes = t.nodes[:0]
	t.nodes = append(t.nodes, cnode{item: -1, parent: nilIdx, child: nilIdx, sibling: nilIdx, next: nilIdx})

	for _, row := range base {
		cur := int32(0)
		for _, it := range row.items {
			ch := nilIdx
			for c := t.nodes[cur].child; c != nilIdx; c = t.nodes[c].sibling {
				if t.nodes[c].item == it {
					ch = c
					break
				}
			}
			if ch == nilIdx {
				if t.head[it] == nilIdx {
					t.present = append(t.present, it)
				}
				ch = int32(len(t.nodes))
				t.nodes = append(t.nodes, cnode{
					item: it, parent: cur, child: nilIdx,
					sibling: t.nodes[cur].child, next: t.head[it],
				})
				t.nodes[cur].child = ch
				t.head[it] = ch
			}
			t.nodes[ch].count += row.w
			t.sup[it] += row.w
			cur = ch
		}
	}
	// Decreasing id = least frequent first.
	slices.Sort(t.present)
	slices.Reverse(t.present)

	if t.aggregate {
		t.buildSegments()
	}
}

// buildSegments materialises the P3 supernode segments: for each node, up
// to aggSpan-1 ancestor items copied inline, plus the skip index.
func (t *compactTree) buildSegments() {
	n := len(t.nodes)
	t.segOff = resize(t.segOff, n)
	t.segLen = resize(t.segLen, n)
	t.skip = resize(t.skip, n)
	t.segs = t.segs[:0]
	for i := 1; i < n; i++ {
		t.segOff[i] = int32(len(t.segs))
		p := t.nodes[i].parent
		ln := 0
		for ln < t.aggSpan-1 && p != 0 && p != nilIdx {
			t.segs = append(t.segs, t.nodes[p].item)
			p = t.nodes[p].parent
			ln++
		}
		t.segLen[i] = int8(ln)
		if p == 0 || p == nilIdx {
			t.skip[i] = nilIdx
		} else {
			t.skip[i] = p
		}
	}
}

// resize returns s re-sliced to length n, reallocating only when its
// capacity is short. Callers overwrite every element they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (t *compactTree) items() []dataset.Item { return t.present }

func (t *compactTree) support(item dataset.Item) int32 { return t.sup[item] }

func (t *compactTree) condBase(item dataset.Item, emit func(path []dataset.Item, w int32)) {
	for n := t.head[item]; n != nilIdx; n = t.nodes[n].next {
		if t.prefetch {
			if nx := t.nodes[n].next; nx != nilIdx {
				// P5/P7 emulation: touch the next node-link early.
				_ = t.nodes[nx].count
			}
		}
		t.pathBuf = t.pathBuf[:0]
		if t.aggregate {
			// Supernode walk: consume inline segments, then skip.
			cur := n
			for cur != nilIdx && cur != 0 {
				off, ln := t.segOff[cur], int(t.segLen[cur])
				t.pathBuf = append(t.pathBuf, t.segs[off:off+int32(ln)]...)
				cur = t.skip[cur]
				if cur != nilIdx && cur != 0 {
					t.pathBuf = append(t.pathBuf, t.nodes[cur].item)
				}
			}
		} else {
			for p := t.nodes[n].parent; p != nilIdx && p != 0; p = t.nodes[p].parent {
				t.pathBuf = append(t.pathBuf, t.nodes[p].item)
			}
		}
		emit(t.pathBuf, t.nodes[n].count)
	}
}
