//go:build !race

package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"testing"
)

// The steady-state allocation contract of the recycled pipeline: a
// batch run over N tuples allocates O(window) — per-run channels,
// goroutines and arenas — NOT O(N). Amortized over a few thousand
// tuples that must stay under a small constant per tuple on the slice
// and JSONL paths (the acceptance gate: ≤ 2 allocs/tuple; the chase
// itself contributes zero once arenas are warm, the JSONL decoder one
// backing string per line). Excluded under the race detector, whose
// instrumentation allocates.

// mallocs reads the cumulative heap-allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measureAllocsPerTuple runs fn twice — once to warm the chaser pool
// and amortizable state — and returns allocations per tuple of the
// second run.
func measureAllocsPerTuple(t *testing.T, tuples int, fn func()) float64 {
	t.Helper()
	fn() // warm: chaser pool, sink schema binding, GC steady state
	runtime.GC()
	m0 := mallocs()
	fn()
	return float64(mallocs()-m0) / float64(tuples)
}

const allocsPerTupleBudget = 2.0

// TestPipelineSteadyStateAllocsSlice gates the slice path: tuples in
// memory, results discarded after the per-result bookkeeping.
func TestPipelineSteadyStateAllocsSlice(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 50, 4000)
	for _, workers := range []int{1, 4} {
		run := func() {
			if _, err := Run(context.Background(), eng, seed, NewSliceSource(dirty), Discard,
				&Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
		if avg := measureAllocsPerTuple(t, len(dirty), run); avg > allocsPerTupleBudget {
			t.Errorf("slice path, %d workers: %.2f allocs/tuple, budget %.1f", workers, avg, allocsPerTupleBudget)
		}
	}
}

// TestPipelineSteadyStateAllocsJSONL gates the full streaming JSONL
// path — decode through the reusing source, chase, encode through the
// append-style sink.
func TestPipelineSteadyStateAllocsJSONL(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 50, 4000)
	sch := dirty[0].Schema
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	for _, tu := range dirty {
		if err := enc.Encode(tu.Map()); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		sink := NewJSONLSink(io.Discard)
		run := func() {
			src := NewJSONLSource(sch, bytes.NewReader(data.Bytes()))
			if _, err := Run(context.Background(), eng, seed, src, sink,
				&Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
		if avg := measureAllocsPerTuple(t, len(dirty), run); avg > allocsPerTupleBudget {
			t.Errorf("jsonl path, %d workers: %.2f allocs/tuple, budget %.1f", workers, avg, allocsPerTupleBudget)
		}
	}
}

// TestChaseIntoZeroAllocSteadyState pins the kernel-side half of the
// contract in isolation: once a batch slot's buffers are warm,
// ChaseInto performs zero heap allocations per tuple (the arena
// generalization of the Chaser's own scratch result).
func TestChaseIntoZeroAllocSteadyState(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 20, 64)
	ch := eng.AcquireChaser()
	defer ch.Release()
	b := newBatch(16)
	warm := func() {
		for i := 0; i < 16; i++ {
			ch.ChaseInto(&b.chase[i], dirty[i%len(dirty)], seed)
		}
	}
	warm()
	avg := testing.AllocsPerRun(100, warm)
	if avg != 0 {
		t.Errorf("warm ChaseInto allocates %v per 16-tuple batch, want 0", avg)
	}
}

// TestRunSingleChunkAllocs pins the direct path's cost: a warm 1-tuple
// Run — source construction included — allocates at most two objects,
// and its sink runs with no stage goroutine alive beside the caller.
func TestRunSingleChunkAllocs(t *testing.T) {
	eng, dirty, seed := workloadEngine(t, 20, 8)
	before := runtime.NumGoroutine()
	sink := SinkFunc(func(*Result) error {
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("sink saw %d goroutines, %d before the run", n, before)
		}
		return nil
	})
	run := func() {
		if _, err := Run(context.Background(), eng, seed, NewSliceSource(dirty[:1]), sink, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: chaser pool, batch pool
	if avg := testing.AllocsPerRun(200, run); avg > 2 {
		t.Errorf("warm 1-tuple Run allocates %v objects, want ≤ 2", avg)
	}
}
