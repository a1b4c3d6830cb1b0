package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"fpm"
	"fpm/internal/servecache"
)

// corpus is one generated input file and the support it is mined at.
type corpus struct {
	Name    string
	Path    string
	Support int
}

// preset is a generator configuration of fixed shape. The generators'
// own seeds stay fixed because the amount of mining work swings several
// fold between generator seeds (the quest preset below yields 0.3 M to
// 1.6 M itemsets at support 40 across seeds 11..44); the workload seed
// instead permutes item labels, and transaction order where the layout
// carries no meaning, so every seed mines a different file of the same
// difficulty.
type preset struct {
	name    string
	support int
	// shuffle lets the seed reorder transactions too. docs and quest keep
	// their order: docs is clustered by topic on purpose, and the
	// partitioned path cuts quest into chunks by position, so its order
	// sets the candidates.
	shuffle bool
	gen     func() *fpm.DB
}

// The three corpora of bench_test.go (quest basket data, topic-clustered
// dense documents, sparse Zipf documents) at half their size and the same
// relative supports, so a sweep of all 18 cells takes about 2 s on 2 CPUs.
var minePresets = []preset{
	{"quest", 40, false, func() *fpm.DB {
		return fpm.GenerateQuest(fpm.QuestConfig{Transactions: 2000, AvgLen: 20, AvgPatternLen: 6, Items: 400, Patterns: 80, Seed: 11})
	}},
	{"docs", 200, false, func() *fpm.DB {
		return fpm.GenerateCorpus(fpm.CorpusConfig{Docs: 1500, Vocab: 3000, AvgLen: 30, ZipfS: 1.25, Topics: 12, TopicShare: 0.6, TopicPool: 60, Seed: 12})
	}},
	{"ap", 10, true, func() *fpm.DB {
		return fpm.GenerateCorpus(fpm.CorpusConfig{Docs: 4000, Vocab: 10000, AvgLen: 10, ZipfS: 1.1, Shuffle: true, Seed: 13})
	}},
}

// The loadgen world's small and medium Quest files and their supports.
var (
	smallPreset = preset{"small", 5, true, func() *fpm.DB {
		return fpm.GenerateQuest(fpm.QuestConfig{Transactions: 600, AvgLen: 6, AvgPatternLen: 3, Items: 200, Patterns: 400, Seed: 1})
	}}
	mediumPreset = preset{"medium", 12, true, func() *fpm.DB {
		return fpm.GenerateQuest(fpm.QuestConfig{Transactions: 4000, AvgLen: 10, AvgPatternLen: 4, Items: 400, Patterns: 800, Seed: 2})
	}}
)

// permute returns a copy of db with item labels permuted by rng and, when
// shuffle is set, the transaction order shuffled. The itemsets of the
// copy are those of db under the same relabeling.
func permute(db *fpm.DB, rng *rand.Rand, shuffle bool) *fpm.DB {
	perm := rng.Perm(db.NumItems)
	out := &fpm.DB{NumItems: db.NumItems, Tx: make([]fpm.Transaction, len(db.Tx))}
	for i, t := range db.Tx {
		nt := make(fpm.Transaction, len(t))
		for j, it := range t {
			nt[j] = fpm.Item(perm[it])
		}
		slices.Sort(nt) // the kernels expect ascending items, as parsing yields
		out.Tx[i] = nt
	}
	if shuffle {
		rng.Shuffle(len(out.Tx), func(i, j int) { out.Tx[i], out.Tx[j] = out.Tx[j], out.Tx[i] })
	}
	return out
}

// writeCorpus generates p, permutes it with rng and writes it to dir.
func writeCorpus(dir string, p preset, rng *rand.Rand) (corpus, *fpm.DB, error) {
	db := permute(p.gen(), rng, p.shuffle)
	c := corpus{Name: p.name, Path: filepath.Join(dir, p.name+".dat"), Support: p.support}
	if err := fpm.WriteFIMIFile(c.Path, db); err != nil {
		return corpus{}, nil, fmt.Errorf("writing %s: %w", c.Path, err)
	}
	return c, db, nil
}

// writeShuffledCopies writes the FIMI text base to dir as prefix-000.dat
// and n copies prefix-001.dat... whose transaction lines are shuffled by
// rng: every copy holds the same transactions, so it mines to the same
// listing, while its bytes, and so its servecache identity, differ.
func writeShuffledCopies(dir, prefix string, base []byte, n int, rng *rand.Rand) ([]string, error) {
	lines := bytes.SplitAfter(base, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	out := make([]byte, 0, len(base))
	paths := make([]string, 0, n+1)
	for m := 0; m <= n; m++ {
		if m > 0 {
			rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		}
		out = out[:0]
		for _, l := range lines {
			out = append(out, l...)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%03d.dat", prefix, m))
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// digest is FNV-64a (the hash servecache uses) over the canonical listing:
// itemsets ordered by servecache.Canonicalize, one line each in the CLI's
// "item item ... (support)" form. Two listings share a digest only if they
// hold the same itemsets with the same supports.
func digest(sets []fpm.Itemset) uint64 {
	h := fnv.New64a()
	var line []byte
	for _, s := range servecache.Canonicalize(sets) {
		line = line[:0]
		for i, it := range s.Items {
			if i > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendInt(line, int64(it), 10)
		}
		line = append(line, " ("...)
		line = strconv.AppendInt(line, int64(s.Support), 10)
		line = append(line, ")\n"...)
		h.Write(line)
	}
	return h.Sum64()
}

// oracle is the reference answer for one corpus: the untuned sequential
// LCM listing's digest and size.
type oracle struct {
	Digest uint64
	Count  int
}

func mineOracle(c corpus) (oracle, error) {
	db, err := fpm.ReadFIMIFile(c.Path)
	if err != nil {
		return oracle{}, err
	}
	sets, err := fpm.Mine(db, fpm.LCM, 0, c.Support)
	if err != nil {
		return oracle{}, fmt.Errorf("oracle %s: %w", c.Name, err)
	}
	return oracle{Digest: digest(sets), Count: len(sets)}, nil
}
