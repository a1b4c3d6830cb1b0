package apriori

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpm/internal/dataset"
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
		t.Fatalf("apriori = %v, want %v", rs, want)
	}
}

func TestDeepLevels(t *testing.T) {
	// All transactions identical: the lattice closes at k=4.
	db := dataset.New([]dataset.Transaction{{0, 1, 2, 3}, {0, 1, 2, 3}})
	rs := mine.ResultSet{}
	if err := New(Options{}).Mine(db, 2, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 15 { // 2^4 - 1
		t.Fatalf("mined %d itemsets, want 15", len(rs))
	}
	if rs["0,1,2,3"] != 2 {
		t.Fatalf("4-itemset support %d", rs["0,1,2,3"])
	}
}

func TestEdgeCases(t *testing.T) {
	if err := New(Options{}).Mine(dataset.New(nil), 1, mine.ResultSet{}); err != nil {
		t.Fatal(err)
	}
	if err := New(Options{}).Mine(dataset.New([]dataset.Transaction{{0}}), 0, mine.ResultSet{}); err == nil {
		t.Fatal("minSupport 0 accepted")
	}
	rs := mine.ResultSet{}
	if err := New(Options{}).Mine(dataset.New([]dataset.Transaction{{0}, {1}}), 2, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("mined %v", rs)
	}
}

func TestGenerateCandidatesPrunes(t *testing.T) {
	// Frequent 2-sets: {0,1},{0,2} — join gives {0,1,2} but {1,2} is
	// absent, so the prune step must reject it.
	level := [][]dataset.Item{{0, 1}, {0, 2}}
	if got := generateCandidates(level, nil); len(got) != 0 {
		t.Fatalf("candidates = %v, want none (pruned)", got)
	}
	// With {1,2} present the join survives.
	level = [][]dataset.Item{{0, 1}, {0, 2}, {1, 2}}
	got := generateCandidates(level, nil)
	if len(got) != 1 || mine.Key(got[0]) != "0,1,2" {
		t.Fatalf("candidates = %v, want [0,1,2]", got)
	}
}

// Property: Apriori agrees with the brute-force oracle.
func TestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 18, 8, 6)
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
