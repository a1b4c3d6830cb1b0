package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"fpm/internal/apriori"
	"fpm/internal/dataset"
	"fpm/internal/eclat"
	"fpm/internal/fpgrowth"
	"fpm/internal/gen"
	"fpm/internal/lcm"
	"fpm/internal/mine"
)

func lcmFactory() mine.Miner { return lcm.New(lcm.Options{}) }

// kernelFactories covers all four kernels: two Splitters (lcm, eclat — the
// work-stealing path) and two plain miners (fpgrowth, apriori — the
// first-level fallback path).
func kernelFactories() map[string]func() mine.Miner {
	return map[string]func() mine.Miner{
		"lcm":      lcmFactory,
		"eclat":    func() mine.Miner { return eclat.New(eclat.Options{}) },
		"fpgrowth": func() mine.Miner { return fpgrowth.New(fpgrowth.Options{}) },
		"apriori":  func() mine.Miner { return apriori.New() },
	}
}

func testDB() *dataset.DB {
	return gen.Quest(gen.QuestConfig{Transactions: 600, AvgLen: 12, AvgPatternLen: 4, Items: 60, Patterns: 25, Seed: 99})
}

// TestMatchesSequentialAllKernels asserts that every kernel wrapped in the
// scheduler produces exactly the sequential result set, for 1, 2, 4 and
// GOMAXPROCS workers. Run under -race this also exercises the stealing
// paths of both Splitter kernels and the first-level fallback.
func TestMatchesSequentialAllKernels(t *testing.T) {
	db := testDB()
	minsup := 30
	for name, factory := range kernelFactories() {
		t.Run(name, func(t *testing.T) {
			want := mine.ResultSet{}
			if err := factory().Mine(db, minsup, want); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("degenerate workload")
			}
			for _, workers := range []int{1, 2, 4, 0} {
				// Cutoff 1 forces spawning whenever the pool is starved,
				// maximising scheduler traffic.
				m := New(workers, factory, WithCutoff(1))
				rs := mine.ResultSet{}
				if err := m.Mine(db, minsup, rs); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !rs.Equal(want) {
					t.Fatalf("workers=%d disagrees:\n%s", workers, rs.Diff(want, 8))
				}
			}
		})
	}
}

// TestCanonicalItemOrder asserts the satellite contract: every itemset the
// parallel miner emits has its items in ascending order, matching the
// sequential kernels' canonical output.
func TestCanonicalItemOrder(t *testing.T) {
	db := testDB()
	for name, factory := range kernelFactories() {
		t.Run(name, func(t *testing.T) {
			m := New(4, factory, WithCutoff(1))
			var sc mine.SliceCollector
			if err := m.Mine(db, 30, &sc); err != nil {
				t.Fatal(err)
			}
			multi := 0
			for _, s := range sc.Sets {
				for i := 1; i < len(s.Items); i++ {
					if s.Items[i-1] >= s.Items[i] {
						t.Fatalf("non-canonical itemset %v", s.Items)
					}
				}
				if len(s.Items) > 1 {
					multi++
				}
			}
			if multi == 0 {
				t.Fatal("no multi-item sets mined; ordering untested")
			}
		})
	}
}

// TestDeterministicMerge asserts that WithDeterministicMerge yields the
// identical emission sequence run to run.
func TestDeterministicMerge(t *testing.T) {
	db := testDB()
	get := func() []mine.Itemset {
		m := New(4, lcmFactory, WithCutoff(1), WithDeterministicMerge(true))
		var sc mine.SliceCollector
		if err := m.Mine(db, 30, &sc); err != nil {
			t.Fatal(err)
		}
		return sc.Sets
	}
	a, b := get(), get()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Support != b[i].Support || !eqItems(a[i].Items, b[i].Items) {
			t.Fatalf("position %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if mine.LessItems(a[i].Items, a[i-1].Items) {
			t.Fatalf("merge not canonically sorted at %d: %v after %v", i, a[i].Items, a[i-1].Items)
		}
	}
}

func eqItems(a, b []dataset.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mineOrTimeout runs m.Mine and fails the test if it does not return —
// the zero-seeded-task deadlock manifests as a hang, not an error.
func mineOrTimeout(t *testing.T, m *Miner, db *dataset.DB, minSupport int, c mine.Collector) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.Mine(db, minSupport, c) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Mine did not return (scheduler deadlock)")
		return nil
	}
}

func TestEdgeCases(t *testing.T) {
	m := New(2, lcmFactory)
	if err := m.Mine(dataset.New(nil), 1, mine.ResultSet{}); err != nil {
		t.Fatalf("empty DB: %v", err)
	}
	if err := m.Mine(dataset.New([]dataset.Transaction{{0}}), 0, mine.ResultSet{}); err == nil {
		t.Fatal("minSupport 0 accepted")
	}
	// minSupport above every item frequency: no results, no error, no
	// hang — for every kernel. The first-level path (the non-Splitter
	// FP-Growth and Apriori kernels) seeds zero tasks here and used to
	// deadlock the pool.
	db := dataset.New([]dataset.Transaction{{0, 1}, {1, 2}, {0, 2}})
	for name, factory := range kernelFactories() {
		m := New(2, factory)
		rs := mine.ResultSet{}
		if err := mineOrTimeout(t, m, db, 100, rs); err != nil {
			t.Fatalf("%s high support: %v", name, err)
		}
		if len(rs) != 0 {
			t.Fatalf("%s high support mined %d sets", name, len(rs))
		}
	}
}

// TestNameCached asserts the satellite fix: Name must not construct a
// throwaway miner per call — the factory runs exactly once, at New time.
func TestNameCached(t *testing.T) {
	var calls atomic.Int32
	factory := func() mine.Miner {
		calls.Add(1)
		return lcm.New(lcm.Options{})
	}
	m := New(2, factory)
	after := calls.Load()
	if m.Name() != "parallel(lcm(baseline))" {
		t.Fatalf("name = %q", m.Name())
	}
	_ = m.Name()
	_ = m.Name()
	if calls.Load() != after {
		t.Fatalf("Name() invoked the factory (%d calls after New's %d)", calls.Load(), after)
	}
}

// failingMiner errors on every non-trivial mine call.
type failingMiner struct{}

func (failingMiner) Name() string { return "failing" }
func (failingMiner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return errors.New("boom")
}

func TestErrorPropagationWithoutDeadlock(t *testing.T) {
	// Many frequent items force many first-level tasks; the failing
	// workers must not deadlock the pool, and exactly one (the first)
	// error must surface.
	db := gen.Quest(gen.QuestConfig{Transactions: 200, AvgLen: 10, AvgPatternLen: 3, Items: 40, Patterns: 15, Seed: 5})
	m := New(3, func() mine.Miner { return failingMiner{} })
	err := m.Mine(db, 5, mine.ResultSet{})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

// splitFailMiner is a Splitter whose spawned tasks fail with distinct
// errors mid-stream; it checks first-error capture and prompt
// cancellation on the work-stealing path.
type splitFailMiner struct {
	ran *atomic.Int32
}

func (splitFailMiner) Name() string { return "splitfail" }
func (s splitFailMiner) Mine(db *dataset.DB, minSupport int, c mine.Collector) error {
	return s.MineSplit(db, minSupport, c, nil)
}
func (s splitFailMiner) MineSplit(db *dataset.DB, minSupport int, c mine.Collector, sp mine.Spawner) error {
	for i := 0; i < 64; i++ {
		i := i
		task := func(c mine.Collector, sp mine.Spawner) error {
			s.ran.Add(1)
			return fmt.Errorf("task %d failed", i)
		}
		if sp == nil || !sp.Offer(1, task) {
			if err := task(c, sp); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestSplitterErrorFirstWinsAndStops(t *testing.T) {
	db := dataset.New([]dataset.Transaction{{0}})
	var ran atomic.Int32
	m := New(4, func() mine.Miner { return splitFailMiner{ran: &ran} }, WithCutoff(1))
	err := m.Mine(db, 1, mine.ResultSet{})
	if err == nil {
		t.Fatal("no error propagated")
	}
	// Cancellation must stop the remaining queued tasks: far fewer than
	// the 64 offered tasks may actually run.
	if n := ran.Load(); n >= 64 {
		t.Fatalf("all %d tasks ran despite first failing", n)
	}
}

// Property: parallel equals brute force on random small inputs.
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
		if err := New(3, lcmFactory, WithCutoff(1)).Mine(db, minsup, rs); err != nil {
			return false
		}
		if !rs.Equal(want) {
			t.Logf("seed %d minsup %d:\n%s", seed, minsup, rs.Diff(want, 5))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
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
