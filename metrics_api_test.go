package fpm

// Tests for the public observability surface: fpm.WithMetrics must return
// the same itemsets as plain mining for every supported algorithm, with a
// populated, JSON-round-trippable Snapshot; sequential and parallel runs
// must agree on the kernel-level counters they can both observe.

import (
	"encoding/json"
	"reflect"
	"testing"
)

func resultMap(sets []Itemset) ResultSet {
	rs := ResultSet{}
	for _, s := range sets {
		rs.Collect(s.Items, s.Support)
	}
	return rs
}

func TestWithMetricsMatchesPlainMine(t *testing.T) {
	db := testDB()
	minsup := 20
	want, err := Mine(db, LCM, 0, minsup)
	if err != nil {
		t.Fatal(err)
	}
	wantRS := resultMap(want)

	for _, algo := range []Algorithm{LCM, Eclat, FPGrowth, Apriori, "hmine", "tidset", "diffset"} {
		for _, workers := range []int{1, 4} {
			sets, snap, err := WithMetrics(db, algo, 0, minsup, workers)
			if err != nil {
				t.Fatalf("%s/w%d: %v", algo, workers, err)
			}
			if got := resultMap(sets); !got.Equal(wantRS) {
				t.Errorf("%s/w%d: results diverge:\n%s", algo, workers, wantRS.Diff(got, 5))
			}
			if snap.Kernel == "" {
				t.Errorf("%s/w%d: snapshot has no kernel name", algo, workers)
			}
			if snap.Emitted != uint64(len(sets)) {
				t.Errorf("%s/w%d: emitted counter %d, want %d", algo, workers, snap.Emitted, len(sets))
			}
			if snap.WallNanos <= 0 {
				t.Errorf("%s/w%d: no wall time recorded", algo, workers)
			}
		}
	}
}

func TestWithMetricsSequentialParallelCountersAgree(t *testing.T) {
	db := testDB()
	minsup := 20
	_, seq, err := WithMetrics(db, LCM, 0, minsup, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := WithMetrics(db, LCM, 0, minsup, 4, ParallelCutoff(64))
	if err != nil {
		t.Fatal(err)
	}
	// TestParallelCountersMatchSequential pins the kernel counters exactly;
	// this test checks the parallel section the scheduler adds.
	if seq.Emitted != par.Emitted {
		t.Errorf("emitted: seq %d, par %d", seq.Emitted, par.Emitted)
	}
	if seq.Nodes == 0 || par.Nodes == 0 {
		t.Fatalf("node counters not populated: seq %d, par %d", seq.Nodes, par.Nodes)
	}
	if par.Parallel == nil {
		t.Fatal("parallel run produced no parallel section")
	}
	if par.Parallel.TasksSpawned == 0 {
		t.Error("parallel run spawned no tasks")
	}
	if len(par.Parallel.Workers) != 4 {
		t.Errorf("worker stats: %d entries, want 4", len(par.Parallel.Workers))
	}
	if seq.Parallel != nil {
		t.Errorf("sequential run has a parallel section: %+v", seq.Parallel)
	}
}

// TestParallelCountersMatchSequential pins the split kernels' parallel
// search to the sequential one: under the scheduler LCM and Eclat run the
// same recursion on a different schedule, so the kernel counters must be
// exactly equal, not merely close. Offers depend on timing, so the test
// asserts nothing about how many tasks were spawned.
func TestParallelCountersMatchSequential(t *testing.T) {
	kernelSetup()
	for _, c := range kernelCorpora[:2] {
		for _, algo := range []Algorithm{LCM, Eclat} {
			_, seq, err := WithMetrics(c.db, algo, Applicable(algo), c.support, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, par, err := WithMetrics(c.db, algo, Applicable(algo), c.support, 4, ParallelCutoff(64))
			if err != nil {
				t.Fatal(err)
			}
			if seq.Nodes != par.Nodes || seq.Supports != par.Supports || seq.Prunes != par.Prunes || seq.Emitted != par.Emitted {
				t.Errorf("%s/%s: sequential nodes=%d supports=%d prunes=%d emitted=%d, parallel nodes=%d supports=%d prunes=%d emitted=%d",
					c.name, algo, seq.Nodes, seq.Supports, seq.Prunes, seq.Emitted, par.Nodes, par.Supports, par.Prunes, par.Emitted)
			}
		}
	}
}

func TestSnapshotJSONRoundTripPublic(t *testing.T) {
	db := testDB()
	_, snap, err := WithMetrics(db, Eclat, Applicable(Eclat), 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("snapshot does not round-trip through encoding/json:\nbefore %+v\nafter  %+v", snap, back)
	}
}
