// Package pipeline is the batch-repair engine of the CerFix
// reproduction: a streaming, sharded executor for non-interactive
// certain-fix passes over large datasets. The paper's data monitor
// "supports several interfaces to access data, which could be readily
// integrated with other database applications" (§3); this package is
// that integration point at scale.
//
// Because master data and editing rules are frozen for the duration of
// a batch (callers snapshot the engine first when the live system may
// mutate — core.Engine.Snapshot), each tuple's certain-fix chase is
// independent of every other tuple's: batch repair is embarrassingly
// parallel. Run shards the input across N workers, each owning a
// reusable core.Chaser — the compiled chase program's executor, pooled
// at the engine so scratch survives across runs — against the shared
// read-only engine, and re-sequences results so the sink observes
// exactly the order — and exactly the bytes — the sequential path
// would have produced.
//
// Memory stays flat regardless of input size, and a run allocates
// O(min(tuples, window)) at most, nothing per tuple once warm: tuples,
// Result structs and ChaseResults live in batch arenas that recycle
// through the in-flight window and, across runs, through a process-wide
// pool (see the memory-model section below), the resequencer is a ring
// buffer sized by that window, and an in-flight token cap bounds how far
// the reader may run ahead of the slowest unfinished tuple, so a slow
// sink (or one pathological tuple) stalls the source instead of
// ballooning the resequencing buffer.
//
// # The direct path
//
// Run reads the first chunk on the caller's goroutine. A source that
// ends inside it — a point fix, a job of at most ChunkSize tuples — is
// chased and sunk right there, with a pooled Chaser and the same chase
// and emit code as the stages, and no goroutine, channel or ring is
// made: such a run costs its chase plus a pool hit. A longer source
// starts the reader → workers → resequencer stages with that chunk as
// their first job.
//
// # Memory model
//
// One batch — up to ChunkSize consecutive tuples, their inputs,
// Results and ChaseResults — is the unit of both work and memory. A
// run takes batches from a sync.Pool shared by all runs, making them
// only as it fills them, up to O(window/ChunkSize + workers), and they
// cycle
//
//	free pool → reader (fills inputs) → worker (chases into the
//	batch's result slots) → resequencer (sinks in order) → free pool
//
// with ownership handed off at each arrow, so no batch is ever shared
// between stages. Recycling piggybacks on the admission tokens: a
// batch returns to the pool only after every one of its results has
// been written and its tokens released, which is exactly when nothing
// in the run can still reference it. A run that ends cleanly hands its
// batches back to the cross-run pool with every value reference
// cleared, so an idle arena pins no snapshot. The corollary is the
// package's recycling contract: a *Result (its Input, Fixed and Chase
// included) is valid only until Sink.Write returns — sinks that retain
// results must Clone them (SliceSink does).
//
// Sources and sinks are small interfaces; CSV and JSONL streaming
// implementations live in io.go, and slice-backed ones serve the HTTP
// batch endpoint and tests. Sources may reuse the returned tuple
// between Next calls (the streaming ones do); the reader copies every
// tuple into batch-arena storage before asking for the next.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"

	"cerfix/internal/core"
	"cerfix/internal/guard"
	"cerfix/internal/schema"
)

// Options tunes a pipeline run. The zero value (or nil) picks
// defaults good for throughput on the current machine.
type Options struct {
	// Workers is the number of parallel chase workers; 1 degenerates
	// to the sequential path. Default: GOMAXPROCS.
	Workers int
	// Window is the maximum number of tuples in flight between source
	// and sink (the backpressure bound: reader admission, channel
	// capacity, resequencing ring and arena footprint all live inside
	// it). Default: 16 per worker, minimum 64.
	Window int
	// ChunkSize is how many consecutive tuples ride one work unit.
	// Chunking amortizes channel operations when individual fixes are
	// microsecond-cheap (the rule-index access path). Default 16.
	ChunkSize int
}

func (o *Options) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o *Options) window(workers int) int {
	if o == nil || o.Window <= 0 {
		w := 16 * workers
		if w < 64 {
			w = 64
		}
		return w
	}
	return o.Window
}

func (o *Options) chunkSize() int {
	if o == nil || o.ChunkSize <= 0 {
		return 16
	}
	return o.ChunkSize
}

// Source yields input tuples in order; Next returns io.EOF when the
// stream is drained. The returned tuple — struct and value slice —
// need only stay valid until the next Next call: streaming sources
// decode into one reused tuple, and the pipeline copies it into arena
// storage before reading on. (The string values themselves must be
// immutable as usual; only the containers may be recycled.)
type Source interface {
	Next() (*schema.Tuple, error)
}

// Result is one tuple's outcome. Sinks receive results strictly in
// input order.
//
// Recycling contract: a Result and everything it references — Input,
// Fixed (which aliases Chase.Tuple) and Chase, including the change
// and conflict slices — live in a batch arena that is recycled through
// the pipeline's in-flight window. They are valid only until
// Sink.Write returns; a sink that retains anything past that must
// Clone the result (or copy the parts it keeps).
type Result struct {
	// Seq is the tuple's 0-based position in the input stream.
	Seq int
	// Input is the tuple as read from the source.
	Input *schema.Tuple
	// Fixed is the chased copy (Input is untouched). It is the same
	// tuple Chase.Tuple points to.
	Fixed *schema.Tuple
	// Chase carries the full outcome: changes, conflicts, rounds.
	Chase *core.ChaseResult
}

// Clone returns a deep copy safe to retain indefinitely, sharing
// nothing with the arena-backed original. Fixed aliases Chase.Tuple in
// the clone, as it does in pipeline-produced results.
func (r *Result) Clone() *Result {
	cp := &Result{Seq: r.Seq, Input: r.Input.Clone(), Chase: r.Chase.Clone()}
	cp.Fixed = cp.Chase.Tuple
	return cp
}

// Sink consumes results in input order. Write errors abort the run.
// The *Result argument obeys the recycling contract documented on
// Result: it is valid only until Write returns.
type Sink interface {
	Write(*Result) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Result) error

// Write implements Sink.
func (f SinkFunc) Write(r *Result) error { return f(r) }

// Discard drops every result; useful when only Stats matter.
var Discard Sink = SinkFunc(func(*Result) error { return nil })

// Stats aggregates a run, mirroring the counters of the sequential
// CLI and HTTP paths. The JSON tags are the wire shape of the jobs
// API and journal (snake_case, like every other API field).
type Stats struct {
	// Tuples is the number of tuples processed.
	Tuples int `json:"tuples"`
	// FullyValidated counts tuples whose every attribute ended
	// validated with no conflicts.
	FullyValidated int `json:"fully_validated"`
	// WithConflicts counts tuples that hit at least one conflict.
	WithConflicts int `json:"with_conflicts"`
	// CellsRewritten counts rule-made value changes across the batch.
	CellsRewritten int `json:"cells_rewritten"`
	// Workers is the worker count the run actually used.
	Workers int `json:"workers"`
}

// batch is one work unit AND its arena: up to ChunkSize consecutive
// tuples with their input storage, Result structs and ChaseResults.
// Batches are made on demand and recycled — within a run through its
// free channel, across runs through batchPool; inner buffers (value
// slices, change/conflict capacity) warm up on first use and persist
// across recycles, so a steady-state run allocates nothing per tuple.
type batch struct {
	startSeq int
	n        int
	used     int                // slots written since the batch left the pool
	in       []schema.Tuple     // inputs, copied from the source
	results  []Result           // handed to the sink, slot i ↔ in[i]
	chase    []core.ChaseResult // reusable chase outcomes, slot i ↔ in[i]
}

func newBatch(chunkSize int) *batch {
	return &batch{
		in:      make([]schema.Tuple, chunkSize),
		results: make([]Result, chunkSize),
		chase:   make([]core.ChaseResult, chunkSize),
	}
}

// push copies tu into the batch's next input slot: the source may
// recycle tu on its next Next call; the value strings themselves are
// immutable and shared.
func (b *batch) push(tu *schema.Tuple) {
	dst := &b.in[b.n]
	dst.Schema = tu.Schema
	dst.ID = tu.ID
	dst.Vals = append(dst.Vals[:0], tu.Vals...)
	b.n++
	if b.n > b.used {
		b.used = b.n
	}
}

// batchPool carries idle batches across runs, so a run's arenas cost
// a pool hit instead of an allocation once the process is warm.
var batchPool sync.Pool

// getBatch takes an empty batch of chunkSize slots from the pool, or
// makes one.
func getBatch(chunkSize int) *batch {
	if b, _ := batchPool.Get().(*batch); b != nil && len(b.in) == chunkSize {
		return b
	}
	return newBatch(chunkSize)
}

// putBatch clears every value reference the batch's used slots hold —
// inputs, results, chased tuples, changes and conflicts, out to their
// capacity — and parks it in the pool. The buffers keep their
// capacity; only the references go, so a pooled arena never pins a
// dead snapshot's strings or a finished run's source tuples.
func putBatch(b *batch) {
	for i := 0; i < b.used; i++ {
		in := &b.in[i]
		clear(in.Vals[:cap(in.Vals)])
		in.Schema = nil
		b.results[i] = Result{}
		c := &b.chase[i]
		if c.Tuple != nil {
			clear(c.Tuple.Vals[:cap(c.Tuple.Vals)])
			c.Tuple.Schema = nil
		}
		clear(c.Changes[:cap(c.Changes)])
		clear(c.Conflicts[:cap(c.Conflicts)])
	}
	b.startSeq, b.n, b.used = 0, 0, 0
	batchPool.Put(b)
}

// chaseBatch chases every tuple of b into b's own result slots, so the
// chase allocates nothing once the arena is warm.
func chaseBatch(ctx context.Context, ch *core.Chaser, b *batch, validated schema.AttrSet, chaos bool) {
	for i := 0; i < b.n; i++ {
		in := &b.in[i]
		if chaos {
			for _, v := range in.Vals {
				guard.ChaosValue(ctx, string(v))
			}
		}
		res := ch.ChaseInto(&b.chase[i], in, validated)
		b.results[i] = Result{Seq: b.startSeq + i, Input: in, Fixed: res.Tuple, Chase: res}
	}
}

// emitBatch feeds b's results to sink in order and tallies them into
// stats. It first checks ctx, so a cancelled run writes nothing more.
func emitBatch(ctx context.Context, b *batch, sink Sink, stats *Stats) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	for i := 0; i < b.n; i++ {
		r := &b.results[i]
		stats.Tuples++
		if r.Chase.AllValidated() && len(r.Chase.Conflicts) == 0 {
			stats.FullyValidated++
		}
		if len(r.Chase.Conflicts) > 0 {
			stats.WithConflicts++
		}
		stats.CellsRewritten += r.Chase.RewriteCount()
		if err := sink.Write(r); err != nil {
			return fmt.Errorf("pipeline: writing tuple %d: %w", r.Seq, err)
		}
	}
	return nil
}

// testWorkerHook, when non-nil, runs in each worker after a batch is
// chased and before it is handed to the resequencer. Tests use it to
// impose adversarial completion orders on the resequencing ring;
// production runs never set it.
var testWorkerHook func(startSeq int)

// Run executes a non-interactive certain-fix pass over every tuple of
// src, asserting the validated attribute set, and streams results to
// sink in input order. The engine must not be mutated during the run;
// when the live system may change concurrently, pass a snapshot
// (core.Engine.Snapshot). Output is byte-identical to calling
// eng.Chase per tuple sequentially.
//
// The caller's goroutine reads the first chunk. A source that ends
// inside it is chased and sunk right there — no goroutine, no channel
// — so a point fix pays for one tuple, not for the batch engine;
// otherwise the reader → workers → resequencer stages start with that
// chunk as their first job.
//
// Cancelling ctx aborts the run: the reader stops admitting tuples,
// workers drain, and Run returns the partial Stats accumulated so far
// together with ctx's error. Because every stage parks inside the
// in-flight window, cancellation is observed within at most one
// window's worth of tuples — it never deadlocks on a full channel.
func Run(ctx context.Context, eng *core.Engine, validated schema.AttrSet, src Source, sink Sink, opts *Options) (Stats, error) {
	workers := opts.workers()
	if ctx != nil {
		// A context cancelled before the run starts aborts
		// synchronously — no tuple is admitted on scheduling luck.
		if err := ctx.Err(); err != nil {
			return Stats{Workers: workers}, err
		}
	}
	chunkSize := opts.chunkSize()
	first := getBatch(chunkSize)
	more, err := readFirst(src, first)
	if err != nil {
		return Stats{Workers: workers}, err
	}
	if more == nil {
		return runDirect(ctx, eng, validated, first, sink, workers)
	}
	return runStages(ctx, eng, validated, src, sink, workers, chunkSize, opts.window(workers), first, more)
}

// readFirst fills b with the stream's first chunk. When the stream
// goes on past it, the tuple that opens the second chunk is read too
// and returned in a fresh batch (the source may recycle it on the next
// Next call); a nil batch means the stream ended inside the first
// chunk.
func readFirst(src Source, b *batch) (more *batch, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = guard.NewPanicError("pipeline reader", p, debug.Stack())
		}
	}()
	for {
		tu, err := src.Next()
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pipeline: reading tuple %d: %w", b.n, err)
		}
		if b.n == len(b.in) {
			more = getBatch(len(b.in))
			more.startSeq = b.n
			more.push(tu)
			return more, nil
		}
		b.push(tu)
	}
}

// runDirect chases a run that fits one chunk on the caller's
// goroutine, with a pooled chaser and the stages' own chase and emit
// code, so its results and Stats are those of the staged path.
func runDirect(ctx context.Context, eng *core.Engine, validated schema.AttrSet, b *batch, sink Sink, workers int) (Stats, error) {
	stats := Stats{Workers: workers}
	if b.n > 0 {
		if err := chaseDirect(ctx, eng, b, validated); err != nil {
			return stats, err
		}
	}
	// A sink panic unwinds from here to the caller; with no stage to
	// release, the batch is simply dropped.
	if err := emitBatch(ctx, b, sink, &stats); err != nil {
		return stats, err
	}
	putBatch(b)
	return stats, nil
}

// chaseDirect is the direct path's worker: a chase panic becomes the
// same typed error a worker goroutine reports, and the chaser is
// abandoned, not released — its mid-chase scratch can't be trusted
// back into the pool.
func chaseDirect(ctx context.Context, eng *core.Engine, b *batch, validated schema.AttrSet) (err error) {
	ch := eng.AcquireChaser()
	defer func() {
		if p := recover(); p != nil {
			err = guard.NewPanicError("pipeline worker", p, debug.Stack())
			return
		}
		ch.Release()
	}()
	chaseBatch(ctx, ch, b, validated, guard.ChaosEnabled())
	return nil
}

// runStages runs the concurrent stages over a stream longer than one
// chunk: first is the full first chunk, more holds the one tuple of
// the second chunk already read, and the reader goroutine goes on from
// there.
func runStages(ctx context.Context, eng *core.Engine, validated schema.AttrSet, src Source, sink Sink,
	workers, chunkSize, window int, first, more *batch) (Stats, error) {
	if window < chunkSize {
		// The reader acquires tokens before a chunk is flushed; a
		// window smaller than one chunk could strand the oldest
		// in-flight tuple inside the reader and deadlock.
		window = chunkSize
	}
	// nChunks bounds the chunk-granular spread of the window: with at
	// most window tuples admitted past the emit frontier, in-flight
	// chunk start positions span fewer than nChunks chunk indices —
	// the resequencing ring's structural invariant.
	nChunks := window/chunkSize + 1
	// The arena population cap: enough batches for every stage to hold
	// a full complement (jobs queue + results queue share nChunks of
	// window, one per worker, one in the reader) without the free pool
	// ever being the bottleneck in steady state. Batches are made on
	// demand up to it, so a short run makes only what it fills.
	nBatches := 2*nChunks + workers + 1

	var (
		jobs     = make(chan *batch, nChunks)
		results  = make(chan *batch, nChunks)
		free     = make(chan *batch, nBatches)
		inflight = make(chan struct{}, window) // admission tokens, 1/tuple
		done     = make(chan struct{})
		errOnce  sync.Once
		runErr   error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			runErr = err
			close(done)
		})
	}
	// A panic escaping through the resequencer (a sink panic — reader
	// and worker panics are converted to run errors below) must still
	// release the pipeline: fail() unparks every stage before the panic
	// continues to the caller, so no goroutine is left blocked on a
	// channel nobody serves.
	defer func() {
		if p := recover(); p != nil {
			fail(guard.NewPanicError("pipeline sink", p, debug.Stack()))
			panic(p)
		}
	}()
	// chaos gates the fault-injection seam once per run: disabled (the
	// default) it costs one atomic load total, keeping the steady-state
	// zero-alloc path untouched.
	chaos := guard.ChaosEnabled()
	if ctx != nil && ctx.Done() != nil {
		// Propagate external cancellation into the pipeline's own done
		// channel; the watcher exits with the run.
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ctx.Done():
				fail(ctx.Err())
			case <-done:
			case <-finished:
			}
		}()
	}

	// The first chunk is admitted and queued before any stage starts:
	// window ≥ chunkSize tokens and nChunks ≥ 2 queue slots leave room
	// for it, so neither send blocks.
	for i := 0; i < first.n; i++ {
		inflight <- struct{}{}
	}
	jobs <- first

	// Stage 1 — reader: copy the stream into batch arenas, admitting
	// at most window tuples past the resequencer's emit frontier. The
	// current batch is grabbed from the free pool only when the next
	// admitted tuple needs one, so a reader parked on the pool never
	// holds admission tokens hostage.
	go func() {
		defer close(jobs) // registered first: runs after the recover below
		defer func() {
			if p := recover(); p != nil {
				fail(guard.NewPanicError("pipeline reader", p, debug.Stack()))
			}
		}()
		created := 2 // first and more
		nextFree := func() *batch {
			select {
			case b := <-free:
				return b
			default:
			}
			if created < nBatches {
				created++
				return getBatch(chunkSize)
			}
			select {
			case b := <-free:
				return b
			case <-done:
				return nil
			}
		}
		// more's tuple was read before the stage started; admit it
		// first.
		cur := more
		select {
		case inflight <- struct{}{}:
		case <-done:
			return
		}
		seq := more.startSeq + more.n
		for {
			if cur != nil && cur.n >= chunkSize {
				select {
				case jobs <- cur:
					cur = nil
				case <-done:
					return
				}
			}
			tu, err := src.Next()
			if err == io.EOF {
				if cur != nil && cur.n > 0 {
					select {
					case jobs <- cur:
					case <-done:
					}
				}
				return
			}
			if err != nil {
				fail(fmt.Errorf("pipeline: reading tuple %d: %w", seq, err))
				return
			}
			select {
			case inflight <- struct{}{}:
			case <-done:
				return
			}
			if cur == nil {
				if cur = nextFree(); cur == nil {
					return
				}
				cur.startSeq = seq
				cur.n = 0
			}
			cur.push(tu)
			seq++
		}
	}()

	// Stage 2 — sharded workers: each owns a pooled chaser against the
	// shared read-only engine and chases into the batch's own result
	// slots.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var chaser *core.Chaser
			defer func() {
				if p := recover(); p != nil {
					// One poisoned tuple or rule fails the run as a typed
					// error instead of killing the process. The chaser is
					// abandoned, not released: its mid-chase scratch can't
					// be trusted back into the pool.
					fail(guard.NewPanicError("pipeline worker", p, debug.Stack()))
					return
				}
				if chaser != nil {
					chaser.Release()
				}
			}()
			chaser = eng.AcquireChaser()
			for b := range jobs {
				chaseBatch(ctx, chaser, b, validated, chaos)
				if testWorkerHook != nil {
					testWorkerHook(b.startSeq)
				}
				select {
				case results <- b:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Stage 3 — resequencer: restore input order through a ring sized
	// by the window, release admission tokens, feed the sink, recycle
	// the batch. Out-of-order completions are pure index stores: chunk
	// k lands in slot k mod nChunks, and the admission bound makes
	// collisions structurally impossible (two pending chunks nChunks
	// apart would need more than window tuples in flight).
	stats := Stats{Workers: workers}
	ring := make([]*batch, nChunks)
	pending := 0
	next := 0
	emit := func(b *batch) bool {
		// The watcher goroutine observes cancellation asynchronously;
		// emitBatch checks ctx too, which stops emission (and the
		// admission tokens it frees) as soon as cancel returns, within
		// one batch.
		if err := emitBatch(ctx, b, sink, &stats); err != nil {
			fail(err)
			return false
		}
		for i := 0; i < b.n; i++ {
			<-inflight
		}
		next = b.startSeq + b.n
		// Recycle. free's capacity covers every batch ever created, so
		// this send cannot block; a plain send keeps the invariant
		// self-enforcing instead of silently dropping the batch.
		free <- b
		return true
	}
loop:
	for b := range results {
		if b.startSeq != next {
			ring[(b.startSeq/chunkSize)%nChunks] = b
			pending++
			continue
		}
		if !emit(b) {
			break loop
		}
		for pending > 0 {
			nb := ring[(next/chunkSize)%nChunks]
			if nb == nil || nb.startSeq != next {
				break
			}
			ring[(next/chunkSize)%nChunks] = nil
			pending--
			if !emit(nb) {
				break loop
			}
		}
	}
	// A failed emit leaves the loop early; drain until the workers
	// have all exited (done is closed, so none blocks) before returning.
	for range results {
	}
	// Seal the error slot before reading it: every in-pipeline failure
	// is already ordered before this point (fail → close(done) →
	// worker exit → close(results) → loop end), but the ctx watcher
	// runs unsynchronized — claiming the Once here means a
	// cancellation that lost the race with a completed run can no
	// longer write.
	errOnce.Do(func() {})
	if runErr != nil {
		// The reader may still hold or be taking batches; they are
		// left to the collector rather than pooled.
		return stats, runErr
	}
	if pending > 0 {
		// Unreachable unless a worker died; keep the invariant loud.
		return stats, errors.New("pipeline: results missing from resequencer")
	}
	// A clean end means the reader closed jobs and every batch came
	// back through the resequencer: the free channel holds them all.
	for len(free) > 0 {
		putBatch(<-free)
	}
	return stats, nil
}
