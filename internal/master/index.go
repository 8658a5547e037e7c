package master

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/storage"
	"cerfix/internal/value"
)

// This file implements the master data manager's index: one table per
// distinct master-side match list Xm, shared by every editing rule
// that matches on Xm. The certain-fix lookup of a rule φ = (Xm, Bm)
// asks one question per probe key k = t[X]: do all master tuples with
// s[Xm] = k agree on s[Bm], and on what value? Each key's entry
// answers it for every (Xm, Bm) pair at once:
//
//   - head is the witness: the key's first row in insertion order.
//     Its Bm cells are the certain fix, read from the table itself, so
//     the index never copies a master value.
//   - conflict holds one bit per registered pair, set once two rows of
//     the group disagree on that pair's Bm.
//   - head, tail and the index's next chain thread the key's whole
//     group in insertion order: the path ModePlainIndex walks. A
//     singleton group is inline (head == tail) and reads no chain.
//
// Keys and entries hold no Go pointers, so the collector never scans
// them, and a key costs no allocation: every Xm width maps to one
// uint64. One attribute keys by its value's dictionary Sym, two pack
// their Syms, and wider lists intern the Sym encoding of all but the
// last attribute in the index's own prefix dictionary and pack that id
// with the last Sym. The key of a probe value the dictionary has never
// seen cannot exist — every add interns its values — so a dictionary
// miss is a certain NoMatch.
//
// Each table is split into shardCount open-addressed shards under the
// usual copy-on-write discipline: Store.Snapshot copies the small
// index headers and marks their shard directories shared; the live
// store copies a directory before its first write after a snapshot,
// marking every shard in the copy shared, and clones a shard's slot
// array before its first write into that shard.
// The next chain is shared append-only: a row's next slot is written
// once, when the row stops being its group's tail, and a snapshot's
// walk stops at its own tail, so it never reads a slot written after
// capture.
//
// Synchronization lives in Store.mu: mutators run under its write
// lock, live lookups under its read lock, and frozen snapshots are
// immutable, so their readers take no lock at all.

// LookupMode selects the master access path (E5's ablation knob).
type LookupMode int32

const (
	// ModeRuleIndex answers from the per-pair conflict bits and the
	// witness row: O(1) per probe. The default.
	ModeRuleIndex LookupMode = iota
	// ModePlainIndex walks the key's group and verifies RHS agreement
	// per probe: O(|key group|).
	ModePlainIndex
	// ModeScan performs full relation scans: O(|master|).
	ModeScan
)

// String names the mode.
func (m LookupMode) String() string {
	switch m {
	case ModeRuleIndex:
		return "rule-index"
	case ModePlainIndex:
		return "plain-index"
	case ModeScan:
		return "scan"
	default:
		return "unknown"
	}
}

const (
	// shardBits sizes the copy-on-write granularity of one index: the
	// first write into a shard after a snapshot clones 1/shardCount of
	// the index's slots.
	shardBits  = 6
	shardCount = 1 << shardBits
	// maxPairs is the number of conflict bits in an entry. Pairs beyond
	// it on one Xm get no bit; their lookups walk the key's group.
	maxPairs = 64
)

// entry is one key's record. Row ids come from the table, start at 1
// and are never reused, so head == 0 marks an empty slot.
type entry struct {
	head, tail uint32
	conflict   uint64
}

type slot struct {
	key uint64
	e   entry
}

// shard is one open-addressed segment of an index's key table:
// linear probing over a power-of-two slot array, at most 3/4 full.
type shard struct {
	slots  []slot
	n      int
	shared bool
}

// capFor returns the slot count that holds n keys.
func capFor(n int) int {
	if n == 0 {
		return 0
	}
	return max(8, 1<<bits.Len(uint(n*4/3)))
}

// mix spreads a key over all 64 bits (the splitmix64 finalizer):
// Syms are dense small integers, and both the shard (top bits) and
// the slot (low bits) must see every key bit.
func mix(k uint64) uint64 {
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

func (sh *shard) find(key, h uint64) *entry {
	if len(sh.slots) == 0 {
		return nil
	}
	mask := uint64(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &sh.slots[i]
		if s.e.head == 0 {
			return nil
		}
		if s.key == key {
			return &s.e
		}
	}
}

// upsert returns key's entry, claiming an empty slot for a new key
// (fresh reports which). The shard must be private and have room.
func (sh *shard) upsert(key, h uint64) (e *entry, fresh bool) {
	mask := uint64(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &sh.slots[i]
		if s.e.head == 0 {
			s.key = key
			sh.n++
			return &s.e, true
		}
		if s.key == key {
			return &s.e, false
		}
	}
}

// resize moves the shard's keys into a fresh array of size slots. The
// old array is never written again, so snapshots sharing it keep it.
func (sh *shard) resize(size int) {
	old := sh.slots
	sh.slots = make([]slot, size)
	sh.shared = false
	sh.n = 0
	for i := range old {
		if s := &old[i]; s.e.head != 0 {
			e, _ := sh.upsert(s.key, mix(s.key))
			*e = s.e
		}
	}
}

// reserve makes the shard private with room for one more key.
func (sh *shard) reserve() {
	switch {
	case (sh.n+1)*4 > len(sh.slots)*3:
		sh.resize(max(8, 2*len(sh.slots)))
	case sh.shared:
		sh.slots = slices.Clone(sh.slots)
		sh.shared = false
	}
}

// pairSpec is one registered Bm list on an index; its position in
// matchIndex.pairs is its conflict bit.
type pairSpec struct {
	attrs []string
	pos   []int
}

// matchIndex is the index of one match list Xm. The header is small
// and copied per snapshot; the shard directory, slot arrays and the
// next chain are shared.
type matchIndex struct {
	attrs []string
	pos   []int // schema positions of attrs
	ident []int // 0..len(attrs)-1: positions of a bare key list
	pairs []pairSpec
	// prefix interns the Sym encoding of the first len(attrs)-1 values
	// when len(attrs) >= 3. Append-only and shared by every view.
	prefix *value.Dict
	// next[id] is the row after id in id's group.
	next []uint32
	// shards is the key table's directory; dirShared marks it as
	// referenced by a snapshot (see ownDir).
	shards    *[shardCount]shard
	dirShared bool
	scratch   value.List // witness cells for conflict checks (writers only)
}

func newMatchIndex(sch *schema.Schema, attrs []string) *matchIndex {
	ix := &matchIndex{attrs: attrs, pos: attrPositions(sch, attrs), ident: make([]int, len(attrs)), shards: new([shardCount]shard)}
	for i := range ix.ident {
		ix.ident[i] = i
	}
	if len(attrs) >= 3 {
		ix.prefix = value.NewDict()
	}
	return ix
}

func attrPositions(sch *schema.Schema, attrs []string) []int {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		pos[i] = sch.MustIndex(a)
	}
	return pos
}

// keyOf computes the key of vals at positions (one per Xm attribute).
// With intern set — the add paths — unseen values and prefixes get
// ids; a probe (intern unset) reports ok=false for anything never
// interned, which no indexed row can carry.
func (ix *matchIndex) keyOf(dict *value.Dict, vals value.List, positions []int, intern bool) (uint64, bool) {
	k := len(positions)
	last, ok := symOf(dict, vals[positions[k-1]], intern)
	if !ok {
		return 0, false
	}
	var hi value.Sym
	switch k {
	case 1:
		return uint64(last), true
	case 2:
		if hi, ok = symOf(dict, vals[positions[0]], intern); !ok {
			return 0, false
		}
	default:
		var buf [32]byte
		enc := buf[:0]
		for _, p := range positions[:k-1] {
			s, ok := symOf(dict, vals[p], intern)
			if !ok {
				return 0, false
			}
			enc = value.AppendSym(enc, s)
		}
		if intern {
			hi = ix.prefix.Intern(string(enc))
		} else if hi, ok = ix.prefix.Lookup(string(enc)); !ok {
			return 0, false
		}
	}
	return uint64(hi)<<32 | uint64(last), true
}

func symOf(dict *value.Dict, v value.V, intern bool) (value.Sym, bool) {
	if intern {
		return dict.InternV(v), true
	}
	return dict.LookupV(v)
}

// get returns key's entry, or nil.
func (ix *matchIndex) get(key uint64) *entry {
	h := mix(key)
	return ix.shards[h>>(64-shardBits)].find(key, h)
}

// add folds row, whose key is key, into its group: a new key starts
// an inline singleton; an existing group links the row behind its
// tail and checks every still-agreeing pair against the witness,
// whose cells rows reads. The target shard must have room (reserve).
func (ix *matchIndex) add(key uint64, row *schema.Tuple, rows *storage.Table) {
	id := uint32(row.ID)
	for len(ix.next) <= int(id) {
		ix.next = append(ix.next, 0)
	}
	ix.ownDir()
	h := mix(key)
	sh := &ix.shards[h>>(64-shardBits)]
	sh.reserve()
	e, fresh := sh.upsert(key, h)
	if fresh {
		*e = entry{head: id, tail: id}
		return
	}
	ix.next[e.tail] = id
	e.tail = id
	for b, p := range ix.pairs {
		bit := uint64(1) << b
		if e.conflict&bit != 0 {
			continue
		}
		var ok bool
		if ix.scratch, ok = rows.CellsAt(ix.scratch[:0], int64(e.head), p.pos); !ok {
			continue // witness gone: only a direct table delete does this
		}
		for i, c := range p.pos {
			if row.Vals[c] != ix.scratch[i] {
				e.conflict |= bit
				break
			}
		}
	}
}

// ownDir makes the shard directory private before a write: a snapshot
// shares the old one, so every shard of the copy starts shared too.
func (ix *matchIndex) ownDir() {
	if !ix.dirShared {
		return
	}
	dir := *ix.shards
	for j := range dir {
		dir[j].shared = true
	}
	ix.shards, ix.dirShared = &dir, false
}

// group calls fn on the ids of key's rows in insertion order until fn
// returns false.
func (ix *matchIndex) group(key uint64, fn func(id int64) bool) {
	e := ix.get(key)
	if e == nil {
		return
	}
	for id := e.head; fn(int64(id)) && id != e.tail; id = ix.next[id] {
	}
}

// indexSet is a store's registry: its indexes plus immutable lookup
// maps, shared by every view built from one PrepareForRules.
type indexSet struct {
	indexes []*matchIndex
	byXm    map[string]int     // xmKey → indexes position
	byPair  map[string]pairRef // HandleKey → index and conflict bit
}

type pairRef struct {
	ix  int
	bit int
}

func newIndexSet() *indexSet {
	return &indexSet{byXm: map[string]int{}, byPair: map[string]pairRef{}}
}

// xmKey canonicalizes a match list. Order matters: keys are positional.
func xmKey(attrs []string) string {
	var b strings.Builder
	for _, a := range attrs {
		b.WriteByte(byte(len(a)))
		b.WriteString(a)
	}
	return b.String()
}

// HandleKey canonicalizes a (Xm, Bm) pair into the registry key a
// RuleHandle resolves by. It depends only on the attribute lists, so
// callers that bind handles repeatedly (the compiled chase binds one
// per rule per Chaser) compute it once and pass it to HandleByKey.
func HandleKey(matchAttrs, rhsAttrs []string) string {
	return xmKey(matchAttrs) + "\xff" + xmKey(rhsAttrs)
}

func (s *indexSet) byAttrs(matchAttrs []string) *matchIndex {
	if i, ok := s.byXm[xmKey(matchAttrs)]; ok {
		return s.indexes[i]
	}
	return nil
}

// pair resolves a registered (Xm, Bm) pair.
func (s *indexSet) pair(key string) (*matchIndex, int, bool) {
	ref, ok := s.byPair[key]
	if !ok {
		return nil, 0, false
	}
	return s.indexes[ref.ix], ref.bit, true
}

// snapshot returns a frozen view: index headers copied, shard
// directories marked shared. O(#indexes), independent of master size.
func (s *indexSet) snapshot() *indexSet {
	cp := &indexSet{indexes: make([]*matchIndex, len(s.indexes)), byXm: s.byXm, byPair: s.byPair}
	for i, ix := range s.indexes {
		ix.dirShared = true
		h := *ix
		h.scratch = nil
		cp.indexes[i] = &h
	}
	return cp
}

// clone deep-copies the registry (the legacy snapshot path, retained
// for Store.CloneDeep and the e9 benchmark baseline).
func (s *indexSet) clone() *indexSet {
	cp := &indexSet{indexes: make([]*matchIndex, len(s.indexes)), byXm: s.byXm, byPair: s.byPair}
	for i, ix := range s.indexes {
		h := *ix
		h.scratch = nil
		h.next = slices.Clone(ix.next)
		dir := *ix.shards
		for j := range dir {
			dir[j] = shard{slots: slices.Clone(dir[j].slots), n: dir[j].n}
		}
		h.shards, h.dirShared = &dir, false
		cp.indexes[i] = &h
	}
	return cp
}

// insert maintains every index for a row just added to rows.
func (s *indexSet) insert(row *schema.Tuple, rows *storage.Table) {
	dict := rows.Dict()
	for _, ix := range s.indexes {
		key, _ := ix.keyOf(dict, row.Vals, ix.pos, true)
		ix.add(key, row, rows)
	}
}

// register adds the (xm, bm) pair, creating xm's index on first use.
// A pair beyond maxPairs on one Xm stays unregistered: its lookups
// walk the key's group instead.
func (s *indexSet) register(sch *schema.Schema, xm, bm []string) {
	i, ok := s.byXm[xmKey(xm)]
	if !ok {
		i = len(s.indexes)
		s.byXm[xmKey(xm)] = i
		s.indexes = append(s.indexes, newMatchIndex(sch, xm))
	}
	ix := s.indexes[i]
	if _, dup := s.byPair[HandleKey(xm, bm)]; !dup && len(ix.pairs) < maxPairs {
		s.byPair[HandleKey(xm, bm)] = pairRef{ix: i, bit: len(ix.pairs)}
		ix.pairs = append(ix.pairs, pairSpec{attrs: bm, pos: attrPositions(sch, bm)})
	}
}

// build fills the registered indexes from every row of the frozen
// table snap. The first pass interns each row's keys and counts them
// per shard, so every slot array is allocated once at its final upper
// bound; the second pass links groups and marks conflicts; shards
// left mostly empty (low-cardinality Xm) are then shrunk. Allocation
// is O(indexes × shardCount), not O(rows).
func (s *indexSet) build(snap *storage.Table) {
	if len(s.indexes) == 0 {
		return
	}
	n, dict := snap.Len(), snap.Dict()
	keys := make([]uint64, len(s.indexes)*n)
	counts := make([][shardCount]int, len(s.indexes))
	maxID, r := int64(0), 0
	snap.ScanShared(func(tu *schema.Tuple) bool {
		for x, ix := range s.indexes {
			k, _ := ix.keyOf(dict, tu.Vals, ix.pos, true)
			keys[x*n+r] = k
			counts[x][mix(k)>>(64-shardBits)]++
		}
		maxID = max(maxID, tu.ID)
		r++
		return true
	})
	for x, ix := range s.indexes {
		ix.next = make([]uint32, maxID+1)
		for j := range ix.shards {
			ix.shards[j] = shard{slots: make([]slot, capFor(counts[x][j]))}
		}
	}
	r = 0
	snap.ScanShared(func(tu *schema.Tuple) bool {
		for x, ix := range s.indexes {
			ix.add(keys[x*n+r], tu, snap)
		}
		r++
		return true
	})
	for _, ix := range s.indexes {
		for j := range ix.shards {
			if sh, c := &ix.shards[j], capFor(ix.shards[j].n); len(sh.slots) > 4*c {
				sh.resize(c)
			}
		}
	}
}

// PrepareForRules (re)builds the store's index from every master row:
// one index per distinct Xm across the rule set and the pairs already
// registered, each (Xm, Bm) pair getting a conflict bit. Callers that
// write the table directly (ReadCSV) must run it afterwards; extra
// runs are idempotent.
func (m *Store) PrepareForRules(rs *rule.Set) error {
	if m.frozen {
		return fmt.Errorf("master: PrepareForRules: %w", storage.ErrFrozen)
	}
	sch := m.table.Schema()
	for _, r := range rs.Rules() {
		for _, a := range append(r.MatchMasterAttrs(), r.SetMasterAttrs()...) {
			if !sch.Has(a) {
				return fmt.Errorf("master: indexing for rule %s: attribute %q not in schema %s", r.ID, a, sch.Name())
			}
		}
	}
	m.lock()
	defer m.unlock()
	snap := m.table.Snapshot()
	if snap.NextID() > math.MaxUint32 {
		return fmt.Errorf("master: %d row ids exceed the index's 32-bit row ids", snap.NextID()-1)
	}
	set := newIndexSet()
	for _, ix := range m.idx.indexes {
		for _, p := range ix.pairs {
			set.register(sch, ix.attrs, p.attrs)
		}
	}
	for _, r := range rs.Rules() {
		set.register(sch, r.MatchMasterAttrs(), r.SetMasterAttrs())
	}
	set.build(snap)
	m.idx = set
	m.version++
	return nil
}

// RegisteredRuleIndexes lists the registered (Xm, Bm) pairs as
// "Xm->Bm", sorted, for diagnostics.
func (m *Store) RegisteredRuleIndexes() []string {
	m.rlock()
	defer m.runlock()
	var out []string
	for _, ix := range m.idx.indexes {
		for _, p := range ix.pairs {
			out = append(out, strings.Join(ix.attrs, ",")+"->"+strings.Join(p.attrs, ","))
		}
	}
	sort.Strings(out)
	return out
}

// RuleHandle is a pre-resolved unique-RHS lookup handle for one
// (Xm, Bm) pair — the compiled chase's direct line to a rule's index.
// On frozen stores (the batch pipeline's and job runners' view) the
// index and conflict bit are resolved at handle creation, so a probe
// is a few dictionary hits, one slot probe and a read of the witness
// row, with no locking and no allocation. On live stores the handle
// re-resolves the pair under the read lock per probe, staying correct
// across PrepareForRules rebuilds and copy-on-write header swaps.
type RuleHandle struct {
	store *Store
	key   string
	ix    *matchIndex // resolved once when the store is frozen
	bit   int
}

// Handle resolves a (Xm, Bm) pair to a lookup handle. The handle is
// valid for the lifetime of the store view it was created from and is
// safe for concurrent use on frozen stores; on live stores each probe
// synchronizes with writers via the store's read lock.
func (m *Store) Handle(matchAttrs, rhsAttrs []string) *RuleHandle {
	h := m.HandleByKey(HandleKey(matchAttrs, rhsAttrs))
	return &h
}

// HandleByKey is Handle for a key prebuilt with HandleKey, skipping
// the per-call key construction. It returns the handle by value so
// callers binding one per rule (every compiled Chaser) fill a slice
// with a single allocation instead of one per handle.
func (m *Store) HandleByKey(key string) RuleHandle {
	h := RuleHandle{store: m, key: key}
	if m.frozen {
		h.ix, h.bit, _ = m.idx.pair(key)
	}
	return h
}

// Lookup answers the unique-RHS probe for t's values at positions
// (the rule's input-side X, matched against Xm). The RHS cells are
// appended to dst, which the caller reuses across probes; the result
// aliases it. The final result reports whether the answer came from
// the index — false means no index is registered for the pair (or
// its witness row was deleted behind the store's back), and the
// caller must fall back to Store.UniqueRHS.
func (h *RuleHandle) Lookup(t *schema.Tuple, positions []int, dst value.List) (value.List, int64, LookupStatus, bool) {
	m := h.store
	if h.ix != nil {
		return h.ix.answer(m.table, t.Vals, positions, h.bit, dst)
	}
	if m.frozen {
		return nil, 0, NoMatch, false // no index at capture: permanent
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	ix, bit, ok := m.idx.pair(h.key)
	if !ok {
		return nil, 0, NoMatch, false
	}
	return ix.answer(m.table, t.Vals, positions, bit, dst)
}

// answer is the rule-index probe: the entry's conflict bit for the
// pair, else the witness row's Bm cells.
func (ix *matchIndex) answer(rows *storage.Table, vals value.List, positions []int, bit int, dst value.List) (value.List, int64, LookupStatus, bool) {
	key, ok := ix.keyOf(rows.Dict(), vals, positions, false)
	if !ok {
		return nil, 0, NoMatch, true
	}
	e := ix.get(key)
	switch {
	case e == nil:
		return nil, 0, NoMatch, true
	case e.conflict&(1<<bit) != 0:
		return nil, 0, Conflict, true
	}
	rhs, ok := rows.CellsAt(dst, int64(e.head), ix.pairs[bit].pos)
	if !ok {
		return nil, 0, NoMatch, false
	}
	return rhs, int64(e.head), Unique, true
}

// memBytes is the index's exact footprint: slot arrays, the next
// chain, the header and, for wide match lists, the prefix dictionary.
func (ix *matchIndex) memBytes() int64 {
	b := int64(unsafe.Sizeof(*ix)) + int64(unsafe.Sizeof(*ix.shards)) + int64(cap(ix.next))*4
	for j := range ix.shards {
		b += int64(len(ix.shards[j].slots)) * int64(unsafe.Sizeof(slot{}))
	}
	if ix.prefix != nil {
		b += ix.prefix.Stats().Bytes
	}
	return b
}

// keyCount returns the number of distinct keys in the index.
func (ix *matchIndex) keyCount() int {
	n := 0
	for j := range ix.shards {
		n += ix.shards[j].n
	}
	return n
}
