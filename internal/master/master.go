// Package master implements CerFix's master data manager. Master data
// (a.k.a. reference data) is "a single repository of high-quality data
// ... assumed consistent and accurate" (paper §2). The manager wraps a
// storage table, pre-builds one index per master-side match list (Xm)
// of the editing rules — the access path rule application probes — and
// exposes the unique-right-hand-side lookup that the certain-fix
// semantics requires: a fix is only certain if every master tuple
// matching the key agrees on the source values.
package master

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/storage"
	"cerfix/internal/value"
)

// LookupStatus classifies a unique-RHS lookup outcome.
type LookupStatus int

const (
	// NoMatch means no master tuple carries the key.
	NoMatch LookupStatus = iota
	// Unique means at least one tuple matched and all agree on the
	// requested source attributes — the fix is certain.
	Unique
	// Conflict means matching tuples disagree on a source attribute;
	// applying the rule would not yield a unique fix.
	Conflict
)

// String names the status for diagnostics.
func (s LookupStatus) String() string {
	switch s {
	case NoMatch:
		return "no-match"
	case Unique:
		return "unique"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Store is the master data manager. A store built by New or FromTable
// is live and thread-safe: its own mutex serializes mutators with
// Snapshot, so a snapshot is always an atomic view of table plus
// index — no caller-side locking required. A store returned by
// Snapshot is a frozen read-only view that any number of goroutines
// read without synchronization.
type Store struct {
	// mu serializes mutators (Insert, PrepareForRules) with Snapshot
	// on the live store and guards live index lookups against them.
	// Frozen stores are immutable and skip it.
	mu     sync.RWMutex
	frozen bool
	table  *storage.Table
	// mode selects the lookup access path; see LookupMode. It is an
	// atomic so mode flips (the E5 ablation knob, SetUseIndexes) are
	// race-free against concurrent lookups, on live stores and
	// snapshots alike — the mode is a per-view knob, not data.
	mode atomic.Int32
	// idx holds one index per distinct match list (see index.go).
	idx *indexSet
	// version counts index mutations (Insert, PrepareForRules,
	// PackColumnar); together with the table snapshot identity it
	// keys the snapshot cache below.
	version uint64
	// snapIdx/snapTable/snapVersion cache the frozen internals of the
	// most recent snapshot: an unchanged store reuses them instead of
	// re-marking shards. Each Snapshot call still returns a fresh
	// *Store wrapper with its own mode atomic, so the per-view SetMode
	// contract holds even when the underlying data is shared.
	snapIdx     *indexSet
	snapTable   *storage.Table
	snapVersion uint64
}

// New wraps an empty master relation under sch.
func New(sch *schema.Schema) *Store {
	m := &Store{table: storage.NewTable(sch), idx: newIndexSet()}
	m.mode.Store(int32(ModeRuleIndex))
	return m
}

// FromTable wraps an existing table (e.g. loaded from CSV).
func FromTable(t *storage.Table) *Store {
	m := &Store{table: t, idx: newIndexSet()}
	m.mode.Store(int32(ModeRuleIndex))
	return m
}

// lock/unlock guard mutators; rlock/runlock guard live readers of the
// index. Frozen stores are immutable: readers skip the mutex and
// mutators must never run (callers check frozen first).
func (m *Store) lock() {
	if m.frozen {
		panic("master: mutating a read-only snapshot")
	}
	m.mu.Lock()
}

func (m *Store) unlock() { m.mu.Unlock() }

func (m *Store) rlock() {
	if !m.frozen {
		m.mu.RLock()
	}
}

func (m *Store) runlock() {
	if !m.frozen {
		m.mu.RUnlock()
	}
}

// Snapshot returns a frozen O(1) view of the store: the table and the
// index of this instant, captured atomically under the store's own
// lock — callers need no external serialization with writers. The snapshot is immutable (mutators fail with
// storage.ErrFrozen) and lock-free to read, so any number of
// goroutines — the batch pipeline's workers, concurrent job runners —
// chase against it while the live store keeps absorbing inserts. Cost
// is independent of master size: both layers only mark their
// constant-size shard directories copy-on-write (see storage.Table
// and index.go). Snapshotting a snapshot returns the same view. The snapshot inherits the live store's lookup mode at
// capture; its mode remains independently settable (a per-view knob).
func (m *Store) Snapshot() *Store {
	if m.frozen {
		return m
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tsnap := m.table.Snapshot()
	// Re-freeze the index only when something changed since the last
	// capture: a different table snapshot (the table caches by
	// generation, covering direct-table bulk writes too) or a new index
	// version. Otherwise the previous frozen view is bit-for-bit current
	// and re-marking shards would only re-tax writers.
	if m.snapIdx == nil || m.snapTable != tsnap || m.snapVersion != m.version {
		m.snapIdx = m.idx.snapshot()
		m.snapTable = tsnap
		m.snapVersion = m.version
	}
	// A fresh wrapper per call: callers own their view's mode knob
	// even when the frozen data underneath is shared.
	cp := &Store{
		frozen: true,
		table:  tsnap,
		idx:    m.snapIdx,
	}
	cp.mode.Store(m.mode.Load())
	return cp
}

// CloneDeep returns an isolated deep copy of the store — cloned table
// and deep-copied index — that is itself live and mutable. This is the legacy O(master size) snapshot path,
// retained for callers that need a private mutable copy and as the
// benchmark baseline for Snapshot (cerfixbench e9).
func (m *Store) CloneDeep() *Store {
	m.rlock()
	defer m.runlock()
	cp := &Store{table: m.table.Clone(), idx: m.idx.clone()}
	cp.mode.Store(m.mode.Load())
	return cp
}

// Frozen reports whether the store is a read-only snapshot.
func (m *Store) Frozen() bool { return m.frozen }

// Schema returns the master schema.
func (m *Store) Schema() *schema.Schema { return m.table.Schema() }

// Table exposes the underlying table (for CSV I/O and the server).
// Bulk writes that bypass the Store (ReadCSV) must be followed by
// PrepareForRules and serialized with Snapshot by the caller; the
// Store-level mutators need no such care.
func (m *Store) Table() *storage.Table { return m.table }

// Len returns the number of master tuples.
func (m *Store) Len() int { return m.table.Len() }

// SetUseIndexes toggles between indexed lookups and full scans —
// kept for the E5 ablation; SetMode is the general knob. on=true maps
// to ModeRuleIndex, false to ModeScan.
func (m *Store) SetUseIndexes(on bool) {
	if on {
		m.SetMode(ModeRuleIndex)
	} else {
		m.SetMode(ModeScan)
	}
}

// SetMode selects the lookup access path. Safe to call concurrently
// with lookups; on a snapshot it retargets only that view.
func (m *Store) SetMode(mode LookupMode) { m.mode.Store(int32(mode)) }

// Mode returns the current access path.
func (m *Store) Mode() LookupMode { return LookupMode(m.mode.Load()) }

// Insert adds a master tuple and maintains the index. The table row
// and its index entries become visible atomically: a concurrent
// Snapshot sees either both or neither.
func (m *Store) Insert(tu *schema.Tuple) (int64, error) {
	if m.frozen {
		return 0, storage.ErrFrozen
	}
	m.lock()
	defer m.unlock()
	if len(m.idx.indexes) > 0 && m.table.NextID() > math.MaxUint32 {
		return 0, fmt.Errorf("master: insert: row ids exceed the index's 32-bit range")
	}
	id, err := m.table.Insert(tu)
	if err != nil {
		return 0, err
	}
	m.idx.insert(&schema.Tuple{Schema: tu.Schema, ID: id, Vals: tu.Vals}, m.table)
	m.version++
	return id, nil
}

// InsertValues adds a master tuple from values.
func (m *Store) InsertValues(vals ...value.V) (int64, error) {
	tu, err := schema.NewTuple(m.table.Schema(), vals...)
	if err != nil {
		return 0, err
	}
	return m.Insert(tu)
}

// All returns every master tuple.
func (m *Store) All() []*schema.Tuple { return m.table.All() }

// Get returns the master tuple with the given ID.
func (m *Store) Get(id int64) (*schema.Tuple, bool) { return m.table.Get(id) }

// Lookup returns copies of all master tuples whose attrs project to
// key, in insertion order.
func (m *Store) Lookup(attrs []string, key value.List) []*schema.Tuple {
	if len(attrs) != len(key) {
		return nil
	}
	var out []*schema.Tuple
	if m.Mode() != ModeScan {
		m.rlock()
		ix := m.idx.byAttrs(attrs)
		if ix != nil {
			if k, ok := ix.keyOf(m.table.Dict(), key, ix.ident, false); ok {
				ix.group(k, func(id int64) bool {
					if tu, live := m.table.Get(id); live {
						out = append(out, tu)
					}
					return true
				})
			}
		}
		m.runlock()
		if ix != nil {
			return out
		}
	}
	pos := attrPositions(m.table.Schema(), attrs)
	m.table.ScanShared(func(tu *schema.Tuple) bool {
		if cellsEqual(tu.Vals, pos, key) {
			out = append(out, tu.Clone())
		}
		return true
	})
	return out
}

// cellsEqual reports whether vals at positions equal want.
func cellsEqual(vals value.List, positions []int, want value.List) bool {
	for i, p := range positions {
		if vals[p] != want[i] {
			return false
		}
	}
	return true
}

// UniqueRHS performs the certain-fix lookup for one rule application:
// find master tuples with matchAttrs = key; if none, return NoMatch; if
// all agree on rhsAttrs, return those values, the witness tuple's ID
// (the first match in insertion order) and Unique; otherwise Conflict.
// ModeRuleIndex answers a registered pair from its conflict bit and
// the witness row; ModePlainIndex (and an unregistered pair over an
// indexed Xm) walks the key's group; ModeScan, and any Xm without an
// index, scans the relation. Every path compares cells in place.
func (m *Store) UniqueRHS(matchAttrs []string, key value.List, rhsAttrs []string) (value.List, int64, LookupStatus) {
	if len(matchAttrs) != len(key) {
		return nil, 0, NoMatch
	}
	rhsPos := attrPositions(m.table.Schema(), rhsAttrs)
	if mode := m.Mode(); mode != ModeScan {
		m.rlock()
		rhs, witness, status, ok := m.indexedRHS(mode, matchAttrs, key, rhsAttrs, rhsPos)
		m.runlock()
		if ok {
			return rhs, witness, status
		}
	}
	var f rhsFold
	pos := attrPositions(m.table.Schema(), matchAttrs)
	m.table.ScanShared(func(tu *schema.Tuple) bool {
		if !cellsEqual(tu.Vals, pos, key) {
			return true
		}
		f.scratch = f.scratch[:0]
		for _, p := range rhsPos {
			f.scratch = append(f.scratch, tu.Vals[p])
		}
		return f.add(tu.ID, f.scratch)
	})
	return f.result()
}

// indexedRHS answers UniqueRHS from the index over matchAttrs: by
// the pair's conflict bit under ModeRuleIndex, else by walking the
// key's group. ok=false means no index covers matchAttrs. Callers
// hold the read lock (or the store is frozen).
func (m *Store) indexedRHS(mode LookupMode, matchAttrs []string, key value.List, rhsAttrs []string, rhsPos []int) (value.List, int64, LookupStatus, bool) {
	ix := m.idx.byAttrs(matchAttrs)
	if ix == nil {
		return nil, 0, NoMatch, false
	}
	if mode == ModeRuleIndex {
		if _, bit, reg := m.idx.pair(HandleKey(matchAttrs, rhsAttrs)); reg {
			if rhs, witness, status, ok := ix.answer(m.table, key, ix.ident, bit, nil); ok {
				return rhs, witness, status, true
			}
		}
	}
	k, found := ix.keyOf(m.table.Dict(), key, ix.ident, false)
	if !found {
		return nil, 0, NoMatch, true
	}
	var f rhsFold
	ix.group(k, func(id int64) bool {
		cells, live := m.table.CellsAt(f.scratch[:0], id, rhsPos)
		f.scratch = cells
		return !live || f.add(id, cells)
	})
	rhs, witness, status := f.result()
	return rhs, witness, status, true
}

// rhsFold accumulates the unique-RHS answer over a key's matching
// rows, visited in insertion order: the first is the witness, and the
// first disagreeing row ends the walk with a conflict.
type rhsFold struct {
	rhs      value.List
	witness  int64
	found    bool
	conflict bool
	scratch  value.List
}

// add folds one matching row's RHS cells (a view the caller reuses),
// reporting whether the walk should continue.
func (f *rhsFold) add(id int64, cells value.List) bool {
	if !f.found {
		f.found, f.witness, f.rhs = true, id, slices.Clone(cells)
		return true
	}
	if !f.rhs.Equal(cells) {
		f.conflict = true
		return false
	}
	return true
}

func (f *rhsFold) result() (value.List, int64, LookupStatus) {
	switch {
	case !f.found:
		return nil, 0, NoMatch
	case f.conflict:
		return nil, 0, Conflict
	}
	return f.rhs, f.witness, Unique
}

// UniqueRHSForRule is UniqueRHS specialized to a rule: the key is the
// input tuple's projection on X, matched against Xm, sourcing Bm.
func (m *Store) UniqueRHSForRule(r *rule.Rule, input *schema.Tuple) (value.List, int64, LookupStatus) {
	key := input.Project(r.MatchInputAttrs())
	return m.UniqueRHS(r.MatchMasterAttrs(), key, r.SetMasterAttrs())
}

// Dict returns the store's interning dictionary (the table's).
// Append-only and shared with every snapshot, so probe-key encoders
// may use it lock-free.
func (m *Store) Dict() *value.Dict { return m.table.Dict() }

// PackColumnar packs cold master shards into columnar form (see
// storage.Table.PackColumnar), returning how many shards it packed.
// Amortized off the snapshot path: cerfixd's pack ticker and the jobs
// runner call it between requests.
func (m *Store) PackColumnar(maxShards int) int {
	if m.frozen {
		return 0
	}
	m.lock()
	defer m.unlock()
	packed := m.table.PackColumnar(maxShards)
	if packed > 0 {
		// Representation changed: force the next Snapshot to re-freeze
		// so it shares the packed shards instead of the cached view.
		m.version++
	}
	return packed
}

// MemStats is the store's memory account: the table's (rows, shards,
// COW debt, dictionary) plus the index's.
type MemStats struct {
	Table storage.TableMem `json:"table"`
	// RuleIndexKeys counts the distinct keys across the match-list
	// indexes; RuleIndexBytes is their exact footprint (slot arrays,
	// group chains, headers and prefix dictionaries).
	RuleIndexKeys  int   `json:"rule_index_keys"`
	RuleIndexBytes int64 `json:"rule_index_bytes"`
}

// TotalBytes sums the account.
func (s MemStats) TotalBytes() int64 { return s.Table.TotalBytes() + s.RuleIndexBytes }

// MemStats returns the store's memory account.
func (m *Store) MemStats() MemStats {
	m.rlock()
	defer m.runlock()
	out := MemStats{Table: m.table.MemStats()}
	for _, ix := range m.idx.indexes {
		out.RuleIndexKeys += ix.keyCount()
		out.RuleIndexBytes += ix.memBytes()
	}
	return out
}

// Stats summarizes the store for the web interface and CLIs.
type Stats struct {
	// Tuples is the number of master tuples.
	Tuples int
	// Attributes is the master schema width.
	Attributes int
	// Schema is the schema's display form.
	Schema string
}

// Stats returns a snapshot summary.
func (m *Store) Stats() Stats {
	return Stats{
		Tuples:     m.table.Len(),
		Attributes: m.table.Schema().Len(),
		Schema:     m.table.Schema().String(),
	}
}
