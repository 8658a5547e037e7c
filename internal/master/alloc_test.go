//go:build !race

package master

import (
	"fmt"
	"runtime"
	"testing"

	"cerfix/internal/rule"
	"cerfix/internal/value"
)

// TestPrepareForRulesAllocsOIndexes guards the index build's cost
// model: PrepareForRules allocates O(shards × match lists) — slot
// arrays, group chains, headers — never O(rows). The demo-shaped rules
// give three high-cardinality lists (zip, Mphn, AC+Hphn) and one low
// (AC), so both the presized and the shrunk shard paths run; a rebuild
// of 10k rows and of 100k rows must allocate exactly the same number
// of objects. The first build of each store warms the value
// dictionary, whose growth is its own amortized cost.
//
// Excluded from -race runs like the other steady-state alloc guards:
// the race runtime adds bookkeeping allocations.
func TestPrepareForRulesAllocsOIndexes(t *testing.T) {
	rs := rule.MustSet(
		mustParse(t, `phi1: match zip~zip set AC := AC`),
		mustParse(t, `phi2: match zip~zip set str := str`),
		mustParse(t, `phi3: match zip~zip set city := city`),
		mustParse(t, `phi4: match phn~Mphn set FN := FN`),
		mustParse(t, `phi5: match phn~Mphn set LN := LN`),
		mustParse(t, `phi6: match AC~AC, phn~Hphn set str := str`),
		mustParse(t, `phi7: match AC~AC, phn~Hphn set city := city`),
		mustParse(t, `phi8: match AC~AC, phn~Hphn set zip := zip`),
		mustParse(t, `phi9: match AC~AC set city := city`),
	)
	rebuild := func(rows int) uint64 {
		m := New(personSchema(t))
		for i := 0; i < rows; i++ {
			v := func(f string, n int) value.V { return value.V(fmt.Sprintf(f, n)) }
			if _, err := m.Table().InsertValues(v("f%d", i%50), v("l%d", i%70), v("ac%d", i%20),
				v("h%d", i), v("m%d", i), v("s%d", i%100), v("city%d", i%20), v("z%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.PrepareForRules(rs); err != nil {
			t.Fatal(err)
		}
		// Best of three: a stray runtime allocation must not count.
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := m.PrepareForRules(rs); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		if st := m.MemStats(); st.RuleIndexKeys != 3*rows+20 {
			t.Fatalf("%d rows: %d index keys, want %d", rows, st.RuleIndexKeys, 3*rows+20)
		}
		return best
	}
	small, large := rebuild(10_000), rebuild(100_000)
	if small != large {
		t.Fatalf("PrepareForRules allocated %d objects at 10k rows but %d at 100k: the build is not O(shards × match lists)", small, large)
	}
	// 4 match lists × 64 shards, each with at most a presized and a
	// shrunk slot array, plus headers and the build's scratch.
	if budget := uint64(4*shardCount*2 + 200); large > budget {
		t.Fatalf("PrepareForRules allocated %d objects (budget %d)", large, budget)
	}
	t.Logf("rebuild allocations: %d at 10k rows, %d at 100k rows", small, large)
}
