package hmine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpm/internal/dataset"
	"fpm/internal/gen"
	"fpm/internal/mine"
)

func TestHandWorked(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0, 1}, {0, 1, 2}, {0, 2}})
	rs := mine.ResultSet{}
	if err := New(Options{}).Mine(db, 2, rs); err != nil {
		t.Fatal(err)
	}
	want := mine.ResultSet{"0": 3, "1": 2, "2": 2, "0,1": 2, "0,2": 2}
	if !rs.Equal(want) {
		t.Fatalf("hmine = %v, want %v", rs, want)
	}
}

func TestEdgeCases(t *testing.T) {
	if err := New(Options{}).Mine(dataset.New(nil), 1, mine.ResultSet{}); err != nil {
		t.Fatalf("empty: %v", err)
	}
	if err := New(Options{}).Mine(dataset.New([]dataset.Transaction{{0}}), 0, mine.ResultSet{}); err == nil {
		t.Fatal("minSupport 0 accepted")
	}
	// A single long transaction: deepest recursion, all subsets.
	rs := mine.ResultSet{}
	if err := New(Options{}).Mine(dataset.New([]dataset.Transaction{{0, 1, 2, 3, 4, 5, 6, 7}}), 1, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 255 {
		t.Fatalf("chain mined %d itemsets, want 255", len(rs))
	}
}

func TestItemsEmittedAscending(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0, 1, 2}, {0, 1, 2}})
	var sc mine.SliceCollector
	if err := New(Options{}).Mine(db, 2, &sc); err != nil {
		t.Fatal(err)
	}
	for _, s := range sc.Sets {
		for i := 1; i < len(s.Items); i++ {
			if s.Items[i] <= s.Items[i-1] {
				t.Fatalf("itemset %v not in increasing order", s.Items)
			}
		}
	}
}

func TestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 20, 8, 6)
		minsup := 1 + rng.Intn(4)
		want := mine.ResultSet{}
		if err := (mine.BruteForce{}).Mine(db, minsup, want); err != nil {
			return false
		}
		rs := mine.ResultSet{}
		if err := New(Options{}).Mine(db, minsup, rs); err != nil {
			return false
		}
		if !rs.Equal(want) {
			t.Logf("seed %d minsup %d:\n%s", seed, minsup, rs.Diff(want, 5))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAgreesOnGenerated(t *testing.T) {
	db := gen.Corpus(gen.CorpusConfig{Docs: 800, Vocab: 500, AvgLen: 10, ZipfS: 1.2, Seed: 31})
	minsup := 40
	want := mine.ResultSet{}
	if err := (mine.BruteForce{}).Mine(db, minsup, want); err != nil {
		t.Fatal(err)
	}
	rs := mine.ResultSet{}
	if err := New(Options{}).Mine(db, minsup, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 || !rs.Equal(want) {
		t.Fatalf("hmine disagrees (%d vs %d itemsets)", len(rs), len(want))
	}
}

func randomDB(rng *rand.Rand, n, m, maxLen int) *dataset.DB {
	tx := make([]dataset.Transaction, n)
	for i := range tx {
		l := rng.Intn(maxLen + 1)
		tr := make(dataset.Transaction, 0, l)
		for j := 0; j < l; j++ {
			tr = append(tr, dataset.Item(rng.Intn(m)))
		}
		tx[i] = tr
	}
	db := dataset.New(tx)
	if db.NumItems < m {
		db.NumItems = m
	}
	db.Normalize()
	return db
}
