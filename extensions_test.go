package fpm

// Tests for the public API of the library extensions: closed/maximal
// mining, association rules, H-mine and the parallel wrapper.

import (
	"testing"
)

func TestMineClosedAndMaximalPublic(t *testing.T) {
	db := testDB()
	minsup := 20
	all, err := Mine(db, LCM, 0, minsup)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := MineClosed(db, minsup)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := MineMaximal(db, minsup)
	if err != nil {
		t.Fatal(err)
	}
	if !(len(mx) <= len(cl) && len(cl) <= len(all)) {
		t.Fatalf("hierarchy violated: %d maximal, %d closed, %d frequent", len(mx), len(cl), len(all))
	}
	// The direct miners must agree with the filters over the complete
	// collection.
	toSet := func(sets []Itemset) ResultSet {
		rs := ResultSet{}
		for _, s := range sets {
			rs.Collect(s.Items, s.Support)
		}
		return rs
	}
	if !toSet(cl).Equal(toSet(FilterClosed(all))) {
		t.Fatal("MineClosed disagrees with FilterClosed")
	}
	if !toSet(mx).Equal(toSet(FilterMaximal(all))) {
		t.Fatal("MineMaximal disagrees with FilterMaximal")
	}
}

func TestGenerateRulesPublic(t *testing.T) {
	db := testDB()
	sets, err := Mine(db, FPGrowth, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	rules := GenerateRules(sets, db.Len(), RuleParams{MinConfidence: 0.5})
	if len(rules) == 0 {
		t.Fatal("no rules from a correlated Quest workload")
	}
	for _, r := range rules {
		if r.Confidence < 0.5 || r.Confidence > 1.0+1e-9 {
			t.Fatalf("confidence out of range: %+v", r)
		}
		if len(r.Antecedent) == 0 || len(r.Consequent) == 0 {
			t.Fatalf("degenerate rule: %+v", r)
		}
	}
}

func TestHMineAndParallelPublic(t *testing.T) {
	db := testDB()
	minsup := 20
	want := ResultSet{}
	m, _ := NewMiner(LCM, 0)
	if err := m.Mine(db, minsup, want); err != nil {
		t.Fatal(err)
	}
	hm := NewHMine()
	rs := ResultSet{}
	if err := hm.Mine(db, minsup, rs); err != nil {
		t.Fatal(err)
	}
	if !rs.Equal(want) {
		t.Fatalf("hmine disagrees: %s", rs.Diff(want, 5))
	}
	par, err := NewParallel(3, FPGrowth, Applicable(FPGrowth))
	if err != nil {
		t.Fatal(err)
	}
	rs = ResultSet{}
	if err := par.Mine(db, minsup, rs); err != nil {
		t.Fatal(err)
	}
	if !rs.Equal(want) {
		t.Fatalf("parallel fpgrowth disagrees: %s", rs.Diff(want, 5))
	}
	if _, err := NewParallel(2, Algorithm("nope"), 0); err == nil {
		t.Fatal("unknown algorithm accepted by NewParallel")
	}
}
