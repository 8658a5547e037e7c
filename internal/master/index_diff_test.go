package master

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

// diffRules register three match lists with wide fan-out: |Xm| = 3
// shared by six Bm lists, a permutation of it (keys are positional, so
// a separate index), and single- and two-attribute lists.
const diffRules = `
w1: match A~A, B~B, C~C set D := D
w2: match A~A, B~B, C~C set E := E
w3: match A~A, B~B, C~C set F := F
w4: match A~A, B~B, C~C set D := D, E := E
w5: match A~A, B~B, C~C set E := E, F := F
w6: match A~A, B~B, C~C set D := D, E := E, F := F
p1: match C~C, A~A, B~B set D := D
s1: match A~A set D := D
s2: match A~A set B := B
t1: match A~A, B~B set C := C
t2: match A~A, B~B set F := F
`

// diffWorld is the brute-force model: every row ever inserted, in
// insertion (= id) order; a view of generation n holds rows[:n].
type diffWorld struct {
	rng  *rand.Rand
	sch  *schema.Schema
	rows []value.List
}

// row draws a row from small domains so groups recur. D and E follow
// the key most of the time, so pairs see both unique and conflicting
// groups; F is noise.
func (w *diffWorld) row() value.List {
	pick := func(prefix string, n int) value.V { return value.V(fmt.Sprintf("%s%d", prefix, w.rng.Intn(n))) }
	a, b, c := pick("a", 4), pick("b", 3), pick("c", 3)
	derived := func(prefix string) value.V {
		if w.rng.Intn(8) == 0 {
			return pick(prefix, 3)
		}
		return value.V(prefix + string(a+b+c))
	}
	return value.List{a, b, c, derived("d"), derived("e"), pick("f", 2)}
}

// probes lists every key the model holds for xm plus keys made of
// known values in absent combinations and keys with never-interned
// values (the dictionary-miss path).
func (w *diffWorld) probes(xm []int) []value.List {
	seen := map[string]bool{}
	var out []value.List
	add := func(k value.List) {
		if s := fmt.Sprint(k); !seen[s] {
			seen[s] = true
			out = append(out, k)
		}
	}
	for _, r := range w.rows {
		k := make(value.List, len(xm))
		for i, p := range xm {
			k[i] = r[p]
		}
		add(k)
	}
	for i := 0; i < 8; i++ {
		k := make(value.List, len(xm))
		for j := range k {
			k[j] = value.V(fmt.Sprintf("%c%d", "abcdef"[xm[j]], w.rng.Intn(5)))
		}
		add(k)
		miss := slices.Clone(k)
		miss[w.rng.Intn(len(miss))] = "never-interned"
		add(miss)
	}
	return out
}

type diffAnswer struct {
	rhs     value.List
	witness int64
	status  LookupStatus
	group   []int64
}

// brute answers a probe by scanning rows, a prefix of the model.
func brute(rows []value.List, xm, bm []int, key value.List) diffAnswer {
	var a diffAnswer
	for i, r := range rows {
		match := true
		for j, p := range xm {
			match = match && r[p] == key[j]
		}
		if !match {
			continue
		}
		rhs := make(value.List, len(bm))
		for j, p := range bm {
			rhs[j] = r[p]
		}
		a.group = append(a.group, int64(i+1))
		switch {
		case a.status == NoMatch:
			a.rhs, a.witness, a.status = rhs, int64(i+1), Unique
		case a.status == Unique && !a.rhs.Equal(rhs):
			a.rhs, a.witness, a.status = nil, 0, Conflict
		}
	}
	return a
}

// check compares every access path of view, which holds rows, with
// the brute-force answers, for every rule and probe.
func check(view *Store, rows []value.List, rs *rule.Set, probes map[string][]value.List) error {
	n := len(rows)
	for _, r := range rs.Rules() {
		xmAttrs, bmAttrs := r.MatchMasterAttrs(), r.SetMasterAttrs()
		xm, bm := attrPositions(view.Schema(), xmAttrs), attrPositions(view.Schema(), bmAttrs)
		h := view.Handle(xmAttrs, bmAttrs)
		for _, key := range probes[xmKey(xmAttrs)] {
			want := brute(rows, xm, bm, key)
			for _, mode := range []LookupMode{ModeRuleIndex, ModePlainIndex, ModeScan} {
				view.SetMode(mode)
				rhs, witness, status := view.UniqueRHS(xmAttrs, key, bmAttrs)
				if status != want.status || witness != want.witness || !rhs.Equal(want.rhs) {
					return fmt.Errorf("gen %d rule %s %v key %v: (%v,%d,%v), brute force (%v,%d,%v)",
						n, r.ID, mode, key, rhs, witness, status, want.rhs, want.witness, want.status)
				}
			}
			view.SetMode(ModePlainIndex)
			var group []int64
			for _, tu := range view.Lookup(xmAttrs, key) {
				group = append(group, tu.ID)
			}
			view.SetMode(ModeRuleIndex)
			if !slices.Equal(group, want.group) {
				return fmt.Errorf("gen %d key %v on %v: group %v, brute force %v", n, key, xmAttrs, group, want.group)
			}
			rhs, witness, status, ok := probeLookup(h, key)
			if !ok || status != want.status || witness != want.witness || !rhs.Equal(want.rhs) {
				return fmt.Errorf("gen %d rule %s handle key %v: (%v,%d,%v,%v), brute force (%v,%d,%v)",
					n, r.ID, key, rhs, witness, status, ok, want.rhs, want.witness, want.status)
			}
		}
	}
	return nil
}

// TestIndexDifferential drives random master relations through bulk
// builds, incremental inserts and rebuilds, snapshotting as it goes,
// and checks every snapshot generation — concurrently with the writer,
// which keeps copying shared shards — and the final live store against
// a brute-force scan: rule-index status, RHS and witness, the group
// walk and scan paths, the plain-index groups and the compiled chase's
// handles. Under -race it is also the proof that the copy-on-write
// slot arrays and the shared next chain are data-race free.
func TestIndexDifferential(t *testing.T) {
	rs, err := rule.ParseSet(diffRules)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 12; seed++ {
		w := &diffWorld{
			rng: rand.New(rand.NewSource(seed)),
			sch: schema.MustNew("M", schema.Str("A"), schema.Str("B"), schema.Str("C"),
				schema.Str("D"), schema.Str("E"), schema.Str("F")),
		}
		m := New(w.sch)
		// A bulk-loaded prefix, written to the table directly as
		// ReadCSV does, then the one-pass build.
		for i := w.rng.Intn(60); i > 0; i-- {
			r := w.row()
			if _, err := m.Table().InsertValues(r...); err != nil {
				t.Fatal(err)
			}
			w.rows = append(w.rows, r)
		}
		if err := m.PrepareForRules(rs); err != nil {
			t.Fatal(err)
		}

		type gen struct {
			view   *Store
			rows   []value.List
			probes map[string][]value.List
		}
		probesFor := func() map[string][]value.List {
			out := map[string][]value.List{}
			for _, r := range rs.Rules() {
				k := xmKey(r.MatchMasterAttrs())
				if out[k] == nil {
					out[k] = w.probes(attrPositions(w.sch, r.MatchMasterAttrs()))
				}
			}
			return out
		}
		gens := make(chan gen, 4)
		errs := make(chan error, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range gens {
				if err := check(g.view, g.rows, rs, g.probes); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
		for step := 0; step < 120; step++ {
			switch x := w.rng.Intn(20); {
			case x < 14:
				r := w.row()
				if _, err := m.InsertValues(r...); err != nil {
					t.Fatal(err)
				}
				w.rows = append(w.rows, r)
			case x < 19:
				n := len(w.rows)
				gens <- gen{view: m.Snapshot(), rows: w.rows[:n:n], probes: probesFor()}
			default:
				if err := m.PrepareForRules(rs); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(gens)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatalf("seed %d: snapshot: %v", seed, err)
		default:
		}
		if err := check(m, w.rows, rs, probesFor()); err != nil {
			t.Fatalf("seed %d: live store: %v", seed, err)
		}
	}
}
