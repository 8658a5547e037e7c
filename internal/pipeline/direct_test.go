package pipeline

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"testing"

	"cerfix/internal/dataset"
)

// TestDirectPathParity pins the single-chunk direct path to the staged
// one around the chunk boundary: at every input size, through the
// slice, CSV and JSONL sources, a default Run writes the same JSONL
// bytes and Stats as a one-worker Run and as a sequential eng.Chase
// loop written to the same sink. Sizes up to 16 (the default chunk)
// take the direct path, 17 and 33 the stages with a one-tuple and a
// partial trailing chunk.
func TestDirectPathParity(t *testing.T) {
	eng, all, seed := workloadEngine(t, 40, 33)
	sch := dataset.CustSchema()
	for _, n := range []int{0, 1, 15, 16, 17, 33} {
		dirty := all[:n]

		var want bytes.Buffer
		ref := NewJSONLSink(&want)
		wantStats := Stats{}
		for i, tu := range dirty {
			res := eng.Chase(tu, seed)
			wantStats.Tuples++
			if res.AllValidated() && len(res.Conflicts) == 0 {
				wantStats.FullyValidated++
			}
			if len(res.Conflicts) > 0 {
				wantStats.WithConflicts++
			}
			wantStats.CellsRewritten += res.RewriteCount()
			if err := ref.Write(&Result{Seq: i, Input: tu, Fixed: res.Tuple, Chase: res}); err != nil {
				t.Fatal(err)
			}
		}

		var csvData, jsonlData bytes.Buffer
		cw := csv.NewWriter(&csvData)
		if err := cw.Write(sch.AttrNames()); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&jsonlData)
		for _, tu := range dirty {
			if err := cw.Write(tu.Vals.Strings()); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(tu.Map()); err != nil {
				t.Fatal(err)
			}
		}
		cw.Flush()
		sources := map[string]func() Source{
			"slice": func() Source { return NewSliceSource(dirty) },
			"csv": func() Source {
				src, err := NewCSVSource(sch, bytes.NewReader(csvData.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				return src
			},
			"jsonl": func() Source { return NewJSONLSource(sch, bytes.NewReader(jsonlData.Bytes())) },
		}
		for name, mk := range sources {
			for _, opts := range []*Options{nil, {Workers: 1}, {Workers: 4}} {
				label := fmt.Sprintf("%d tuples, %s source, opts %+v", n, name, opts)
				var got bytes.Buffer
				stats, err := Run(context.Background(), eng, seed, mk(), NewJSONLSink(&got), opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: output diverges from the sequential chase\n got %s\nwant %s", label, got.Bytes(), want.Bytes())
				}
				wantStats.Workers = opts.workers()
				if stats != wantStats {
					t.Fatalf("%s: stats = %+v, want %+v", label, stats, wantStats)
				}
			}
		}
	}
}

// TestPutBatchClearsReferences checks the pool's hygiene: a batch
// parked in the cross-run pool keeps its buffers' capacity but no
// value, tuple or schema reference, out to every slice's capacity, so
// an idle arena pins neither a finished run's inputs nor the strings of
// the snapshot it was chased against.
func TestPutBatchClearsReferences(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 40, 16)
	b := newBatch(16)
	for _, tu := range dirty {
		b.push(tu)
	}
	ch := eng.AcquireChaser()
	chaseBatch(context.Background(), ch, b, seed, false)
	ch.Release()
	// Shrink the batch as a short trailing chunk would: the slots past
	// n were still written earlier in the run.
	b.n = 3
	changes := 0
	for i := range b.chase {
		changes += len(b.chase[i].Changes)
	}
	if changes == 0 {
		t.Fatal("workload made no changes; the check below would be vacuous")
	}
	putBatch(b)
	if b.n != 0 || b.used != 0 || b.startSeq != 0 {
		t.Fatalf("batch counters not reset: %+v", b)
	}
	for i := range b.in {
		in, c := &b.in[i], &b.chase[i]
		if in.Schema != nil || b.results[i] != (Result{}) || c.Tuple == nil || c.Tuple.Schema != nil {
			t.Fatalf("slot %d keeps a reference", i)
		}
		for _, v := range append(in.Vals[:cap(in.Vals)], c.Tuple.Vals[:cap(c.Tuple.Vals)]...) {
			if v != "" {
				t.Fatalf("slot %d keeps value %q", i, v)
			}
		}
		for _, ch := range c.Changes[:cap(c.Changes)] {
			if ch.Attr != "" || ch.Old != "" || ch.New != "" || ch.RuleID != "" {
				t.Fatalf("slot %d keeps change %+v", i, ch)
			}
		}
		for _, cf := range c.Conflicts[:cap(c.Conflicts)] {
			if cf.Attr != "" || cf.Have != "" || cf.Want != "" || cf.RuleID != "" || cf.Detail != "" {
				t.Fatalf("slot %d keeps conflict %+v", i, cf)
			}
		}
	}
}
