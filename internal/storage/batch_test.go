package storage

import (
	"testing"

	"cerfix/internal/schema"
	"cerfix/internal/value"
)

func TestApplyBatchMixed(t *testing.T) {
	tb := NewTable(personSchema(t))
	ids := fill(t, tb)
	updated, _ := tb.Get(ids[0])
	updated.Set("zip", "NEW1")
	newRow := schema.MustTuple(tb.Schema(), "Eve", "Stone", "NEW2")

	got, err := tb.ApplyBatch([]Op{
		Insert(newRow),
		Update(updated),
		Delete(ids[1]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("ids = %v", got)
	}
	if tb.Len() != 3 { // 3 - 1 + 1
		t.Fatalf("Len = %d", tb.Len())
	}
	for _, zip := range []value.V{"NEW1", "NEW2"} {
		if n := len(tb.Select(func(tu *schema.Tuple) bool { return tu.Get("zip") == zip })); n != 1 {
			t.Fatalf("zip %s: %d rows after batch, want 1", zip, n)
		}
	}
	if _, ok := tb.Get(ids[1]); ok {
		t.Fatal("delete not applied")
	}
}

// A failing operation anywhere leaves the table completely unchanged.
func TestApplyBatchAtomicity(t *testing.T) {
	tb := NewTable(personSchema(t))
	ids := fill(t, tb)
	before := tb.All()

	ghost := schema.MustTuple(tb.Schema(), "G", "H", "I")
	ghost.ID = 999
	cases := [][]Op{
		{Insert(schema.MustTuple(tb.Schema(), "A", "B", "C")), Update(ghost)},
		{Delete(ids[0]), Delete(999)},
		{Insert(nil)},
		{Update(nil)},
		{{Kind: OpKind(42)}},
		{Delete(ids[0]), Delete(ids[0])}, // double delete of one row
	}
	for i, ops := range cases {
		if _, err := tb.ApplyBatch(ops); err == nil {
			t.Fatalf("case %d: invalid batch accepted", i)
		}
		after := tb.All()
		if len(after) != len(before) {
			t.Fatalf("case %d: row count changed (%d -> %d)", i, len(before), len(after))
		}
		for j := range after {
			if !after[j].Equal(before[j]) {
				t.Fatalf("case %d: row %d changed", i, j)
			}
		}
	}
}

func TestApplyBatchSchemaMismatch(t *testing.T) {
	tb := NewTable(personSchema(t))
	other := schema.MustNew("O", schema.Str("x"))
	if _, err := tb.ApplyBatch([]Op{Insert(schema.MustTuple(other, "v"))}); err == nil {
		t.Fatal("foreign schema accepted")
	}
	tu := schema.MustTuple(other, "v")
	tu.ID = 1
	if _, err := tb.ApplyBatch([]Op{Update(tu)}); err == nil {
		t.Fatal("foreign schema update accepted")
	}
}

func TestApplyBatchEmptyAndInsertOnly(t *testing.T) {
	tb := NewTable(personSchema(t))
	if ids, err := tb.ApplyBatch(nil); err != nil || len(ids) != 0 {
		t.Fatalf("empty batch: %v %v", ids, err)
	}
	ids, err := tb.ApplyBatch([]Op{
		Insert(schema.MustTuple(tb.Schema(), "A", "B", "C")),
		Insert(schema.MustTuple(tb.Schema(), "D", "E", "F")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] == ids[1] || ids[0] == 0 {
		t.Fatalf("insert ids = %v", ids)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

// Update of a row inserted in the same batch is rejected (IDs are
// assigned at commit, so the caller cannot know them yet).
func TestApplyBatchUpdateOfPendingInsert(t *testing.T) {
	tb := NewTable(personSchema(t))
	pending := schema.MustTuple(tb.Schema(), "A", "B", "C")
	pending.ID = 1 // guess — row 1 does not exist yet
	if _, err := tb.ApplyBatch([]Op{
		Insert(schema.MustTuple(tb.Schema(), "X", "Y", "Z")),
		Update(pending),
	}); err == nil {
		t.Fatal("update of not-yet-committed row accepted")
	}
}

func TestOpKindString(t *testing.T) {
	if OpInsert.String() != "insert" || OpUpdate.String() != "update" ||
		OpDelete.String() != "delete" || OpKind(9).String() != "unknown" {
		t.Fatal("names wrong")
	}
}
