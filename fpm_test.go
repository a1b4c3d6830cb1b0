package fpm

import (
	"bytes"
	"strings"
	"testing"
)

func testDB() *DB {
	db := GenerateQuest(QuestConfig{
		Transactions: 300, AvgLen: 10, AvgPatternLen: 4,
		Items: 50, Patterns: 20, Seed: 3,
	})
	return db
}

func TestMineAllAlgorithmsAgree(t *testing.T) {
	db := testDB()
	minsup := 20
	var want map[string]int
	for _, algo := range []Algorithm{LCM, Eclat, FPGrowth, Apriori} {
		sets, err := Mine(db, algo, Applicable(algo), minsup)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got := map[string]int{}
		for _, s := range sets {
			rs := ResultSet{}
			rs.Collect(s.Items, s.Support)
			for k, v := range rs {
				got[k] = v
			}
		}
		if want == nil {
			want = got
			if len(want) == 0 {
				t.Fatal("degenerate workload")
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s mined %d itemsets, want %d", algo, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %s support %d, want %d", algo, k, got[k], v)
			}
		}
	}
}

func TestNewMinerUnknown(t *testing.T) {
	if _, err := NewMiner(Algorithm("nope"), 0); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRecommendRunsAndExplains(t *testing.T) {
	db := testDB()
	rec := Recommend(db, 20)
	sets, err := Mine(db, rec.Algorithm, rec.Patterns, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatal("recommended kernel found nothing")
	}
	if len(rec.Rationale) == 0 {
		t.Fatal("recommendation has no rationale")
	}
	// The recommendation must be reproducible: the same input yields the
	// same choice, and mining with it again yields the same sets.
	again := Recommend(db, 20)
	if again.Algorithm != rec.Algorithm || again.Patterns != rec.Patterns {
		t.Fatalf("recommendation not stable: %s then %s", rec, again)
	}
	resets, err := Mine(db, again.Algorithm, again.Patterns, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(resets) != len(sets) {
		t.Fatalf("second mine found %d sets, first found %d", len(resets), len(sets))
	}
}

func TestFIMIRoundTripThroughPublicAPI(t *testing.T) {
	db := testDB()
	var buf bytes.Buffer
	if err := WriteFIMI(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFIMI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Mine(db, LCM, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(back, LCM, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("round-tripped database mines differently: %d vs %d", len(a), len(b))
	}
}

func TestLexOrderPublic(t *testing.T) {
	db := testDB()
	lexed, ord := LexOrder(db)
	if lexed.Len() != db.Len() {
		t.Fatal("LexOrder changed transaction count")
	}
	if ord == nil || len(ord.Orig) != db.NumItems {
		t.Fatal("missing ordering")
	}
	// Mining the lex layout with restored labels equals mining the
	// original.
	a, _ := Mine(db, Eclat, 0, 20)
	b, _ := Mine(lexed, Eclat, 0, 20)
	if len(a) != len(b) {
		t.Fatalf("lex layout mines %d itemsets, original %d", len(b), len(a))
	}
}

func TestStatsAndMachines(t *testing.T) {
	s := ComputeStats(testDB())
	if s.Transactions != 300 || s.AvgLen <= 0 {
		t.Fatalf("stats: %+v", s)
	}
	if M1().L1.SizeBytes >= M2().L1.SizeBytes {
		t.Fatal("machine models swapped")
	}
}

func TestExperimentPrintersSmoke(t *testing.T) {
	var buf bytes.Buffer
	PrintTable4(&buf)
	PrintTable5(&buf)
	o := ExperimentOptions{Scale: 0.001, Seed: 5, MaxColumns: 12, MaxVectors: 12}
	PrintTable6(&buf, o)
	out := buf.String()
	for _, want := range []string{"SIMDization", "Pentium", "DS4"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q", want)
		}
	}
}

func TestTable6DatasetsPublic(t *testing.T) {
	sets := Table6Datasets(0.001, 9)
	if len(sets) != 4 {
		t.Fatalf("got %d datasets", len(sets))
	}
	for _, d := range sets {
		if err := d.DB.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}
