package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cerfix/internal/jobs"
	"cerfix/internal/pipeline"
	"cerfix/internal/schema"
)

// This file adds the batch-fix endpoint: the demo's monitor "supports
// several interfaces to access data, which could be readily integrated
// with other database applications" (§3) — batch mode is the
// integration point for bulk pipelines, applying non-interactive
// certain-fix passes given a caller-asserted validated attribute list.
//
// The handler captures an O(1) copy-on-write engine snapshot — the
// server lock is held only for the pointer-sized capture, never
// across a clone of master data — then fixes through
// internal/pipeline's sharded worker pool, so large batches neither
// serialize behind each other nor block interactive sessions, and
// concurrent rule/master mutations cannot race the in-flight batch.

// batchRequest is the POST /api/fix payload.
type batchRequest struct {
	// Validated lists the attributes the caller asserts correct on
	// every tuple.
	Validated []string `json:"validated"`
	// Tuples are the input rows (attribute → value).
	Tuples []map[string]string `json:"tuples"`
}

// batchTupleResult is one tuple's outcome — the same record the async
// jobs subsystem writes to its results artifact, so a job's JSONL
// output is byte-identical per line to this endpoint's results array.
type batchTupleResult = jobs.TupleResult

// batchResponse is the endpoint's reply. The handler renders it
// incrementally with jobs.ResultEncoder rather than marshaling this
// struct (the pipeline recycles results out from under a retained
// slice); the type remains the authoritative wire shape, decoded by
// the API tests and pinned byte-for-byte against the encoder by the
// response regression test.
type batchResponse struct {
	Results []batchTupleResult `json:"results"`
	// FullyValidated counts tuples whose every attribute ended
	// validated.
	FullyValidated int `json:"fully_validated"`
	// CellsRewritten counts rule-made value changes.
	CellsRewritten int `json:"cells_rewritten"`
}

func (s *Server) handleBatchFix(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The input schema is fixed for the system's lifetime, so the body
	// decodes into its positions before the lock is taken.
	input := s.sys.InputSchema()
	req, err := decodeFixRequest(r, input, s.limits.MaxBody)
	if err != nil {
		writeDecodeErr(w, r, err)
		return
	}
	if len(req.validated) == 0 {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, fmt.Errorf("validated attribute list required"))
		return
	}
	if req.count() == 0 {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, fmt.Errorf("no tuples"))
		return
	}
	// Freeze a consistent view — an O(1) COW capture; the lock only
	// pins the engine pointer against rule-set swaps — then fix
	// outside it.
	s.mu.Lock()
	for _, a := range req.validated {
		if !input.Has(a) {
			s.mu.Unlock()
			writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, fmt.Errorf("unknown attribute %q", a))
			return
		}
	}
	eng := s.sys.SnapshotEngine()
	s.mu.Unlock()

	tuples, err := req.inputTuples(input)
	if err != nil {
		writeErr(w, r, http.StatusUnprocessableEntity, codeInvalidInput, err)
		return
	}

	// The response is rendered incrementally per result through the
	// jobs ResultEncoder — byte-identical to writeJSON encoding a
	// batchResponse (the regression test pins this), but honoring the
	// pipeline's recycling contract: each result is serialized before
	// Write returns, so the run allocates nothing per tuple beyond the
	// pooled response buffer's growth.
	seed := schema.SetOfNames(input, req.validated...)
	bp, _ := fixBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf := append((*bp)[:0], `{"results":[`...)
	first := true
	sink := pipeline.SinkFunc(func(res *pipeline.Result) error {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = s.fixEnc.Append(buf, res)
		return nil
	})
	stats, err := pipeline.Run(r.Context(), eng, seed, pipeline.NewSliceSource(tuples), sink, nil)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// The per-request deadline (-request-timeout) expired
			// mid-run and the pipeline drained cleanly.
			writeErr(w, r, http.StatusGatewayTimeout, codeDeadlineExceeded,
				fmt.Errorf("batch fix exceeded the %s request deadline; reduce the batch or submit an async job", s.limits.RequestTimeout))
		case errors.Is(err, context.Canceled):
			// The client went away mid-run: the pipeline aborted with
			// its context, the gate slot is released by withSyncGate's
			// defer, and there is nobody to answer — just tag the
			// access-log line with why.
			metaFrom(r).code = "client_disconnect"
		default:
			writeErr(w, r, http.StatusInternalServerError, codeInternal, err)
		}
		return
	}
	// Feed the shed path's Retry-After estimate with real service time.
	s.fixTime.Observe(time.Since(start))
	buf = append(buf, `],"fully_validated":`...)
	buf = strconv.AppendInt(buf, int64(stats.FullyValidated), 10)
	buf = append(buf, `,"cells_rewritten":`...)
	buf = strconv.AppendInt(buf, int64(stats.CellsRewritten), 10)
	buf = append(buf, '}', '\n') // json.Encoder's trailing newline
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		fixBufs.Put(bp)
	}
}

// fixBufs recycles POST /fix response buffers: Write copies the bytes
// out, so the buffer is free again once it returns.
var fixBufs sync.Pool
