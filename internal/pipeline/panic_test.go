package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cerfix/internal/guard"
)

// A panic inside a worker's chase — here injected through the chaos
// seam — must surface as a typed *guard.PanicError from Run, with the
// stack attached, and must not deadlock or leak the other stages.
func TestWorkerPanicBecomesTypedError(t *testing.T) {
	guard.SetChaos(true)
	defer guard.SetChaos(false)

	eng, tuples, validated := workloadEngine(t, 40, 40)
	// Poison one tuple mid-stream.
	tuples[20].Vals[0] = guard.ChaosPanicValue

	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		_, err := Run(context.Background(), eng, validated, NewSliceSource(tuples), Discard, &Options{Workers: 4})
		var pe *guard.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: err = %v, want *guard.PanicError", round, err)
		}
		if pe.Where != "pipeline worker" || len(pe.Stack) == 0 {
			t.Fatalf("round %d: PanicError = %+v", round, pe)
		}
	}
	// No stage goroutines may outlive their runs.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked across panicked runs: before %d, after %d", before, after)
	}
}

// A panic in the sink (which runs on the caller's goroutine) must
// still unblock every stage before propagating — the caller's recover
// story is its own, but the pipeline may not leak goroutines under it.
func TestSinkPanicReleasesPipeline(t *testing.T) {
	eng, tuples, validated := workloadEngine(t, 40, 64)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("sink panic did not propagate")
			}
		}()
		sink := SinkFunc(func(r *Result) error {
			if r.Seq == 10 {
				panic("sink exploded")
			}
			return nil
		})
		_, _ = Run(context.Background(), eng, validated, NewSliceSource(tuples), sink, &Options{Workers: 4})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked after sink panic: before %d, after %d", before, after)
	}
}

// A chaos stall parks a worker until the run's context is cancelled;
// cancellation must then drain the run and report the context cause —
// the exact sequence the jobs watchdog relies on.
func TestChaosStallReleasedByCancel(t *testing.T) {
	guard.SetChaos(true)
	defer guard.SetChaos(false)
	guard.ArmStalls(1)

	eng, tuples, validated := workloadEngine(t, 40, 32)
	tuples[7].Vals[0] = guard.ChaosStallValue

	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel(fmt.Errorf("%w: test fired", guard.ErrStalled))
	}()
	doneCh := make(chan error, 1)
	go func() {
		_, err := Run(ctx, eng, validated, NewSliceSource(tuples), Discard, &Options{Workers: 2})
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !errors.Is(context.Cause(ctx), guard.ErrStalled) {
			t.Fatalf("cause = %v, want ErrStalled", context.Cause(ctx))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled run never drained after cancellation")
	}
}

// singleChunkSizes are the inputs the caller's goroutine chases
// directly: one tuple, and a full default chunk.
var singleChunkSizes = []int{1, 16}

// waitGoroutines fails t unless the goroutine count settles back to at
// most before+2 within five seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before %d, after %d", before, after)
	}
}

// The direct path converts a chase panic into the same typed error a
// worker goroutine reports.
func TestWorkerPanicSingleChunk(t *testing.T) {
	guard.SetChaos(true)
	defer guard.SetChaos(false)

	for _, n := range singleChunkSizes {
		eng, tuples, validated := workloadEngine(t, 40, n)
		tuples[n/2].Vals[0] = guard.ChaosPanicValue
		before := runtime.NumGoroutine()
		for round := 0; round < 3; round++ {
			_, err := Run(context.Background(), eng, validated, NewSliceSource(tuples), Discard, &Options{Workers: 4})
			var pe *guard.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%d tuples, round %d: err = %v, want *guard.PanicError", n, round, err)
			}
			if pe.Where != "pipeline worker" || len(pe.Stack) == 0 {
				t.Fatalf("%d tuples, round %d: PanicError = %+v", n, round, pe)
			}
		}
		waitGoroutines(t, before)
	}
}

// A sink panic on the direct path propagates to the caller.
func TestSinkPanicSingleChunk(t *testing.T) {
	for _, n := range singleChunkSizes {
		eng, tuples, validated := workloadEngine(t, 40, n)
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d tuples: sink panic did not propagate", n)
				}
			}()
			sink := SinkFunc(func(r *Result) error {
				if r.Seq == n-1 {
					panic("sink exploded")
				}
				return nil
			})
			_, _ = Run(context.Background(), eng, validated, NewSliceSource(tuples), sink, &Options{Workers: 4})
		}()
		waitGoroutines(t, before)
	}
}

// Cancellation on the direct path: a context cancelled before the run
// admits nothing, and one cancelled while a tuple stalls in the chase
// returns the context's error having written nothing.
func TestStallCancelSingleChunk(t *testing.T) {
	guard.SetChaos(true)
	defer guard.SetChaos(false)

	for _, n := range singleChunkSizes {
		eng, tuples, validated := workloadEngine(t, 40, n)
		written := 0
		sink := SinkFunc(func(*Result) error { written++; return nil })

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		stats, err := Run(ctx, eng, validated, NewSliceSource(tuples), sink, nil)
		if !errors.Is(err, context.Canceled) || stats.Tuples != 0 || written != 0 {
			t.Fatalf("%d tuples, cancelled before: err = %v, %d tuples, %d written", n, err, stats.Tuples, written)
		}

		guard.ArmStalls(1)
		tuples[n/2].Vals[0] = guard.ChaosStallValue
		ctx, cancel = context.WithCancel(context.Background())
		before := runtime.NumGoroutine()
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		stats, err = Run(ctx, eng, validated, NewSliceSource(tuples), sink, nil)
		if !errors.Is(err, context.Canceled) || stats.Tuples != 0 || written != 0 {
			t.Fatalf("%d tuples, cancelled mid-run: err = %v, %d tuples, %d written", n, err, stats.Tuples, written)
		}
		waitGoroutines(t, before)
	}
}
