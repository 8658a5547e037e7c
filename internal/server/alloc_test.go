//go:build !race

package server

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// fixServeAllocsBudget bounds the heap allocations of one warm 1-tuple
// POST /api/v1/fix through the full handler stack — middleware,
// routing, body decode, snapshot, pipeline run and response encode —
// measured without the HTTP transport (the recorder and request count,
// about a dozen). The schema-position decoder, the pipeline's direct
// path and the pooled response buffer took it from 168 to 38.
const fixServeAllocsBudget = 50

// TestFixServeHTTPAllocs gates the served point fix's allocation count
// (excluded under the race detector, whose instrumentation allocates).
func TestFixServeHTTPAllocs(t *testing.T) {
	h := New(demoSys(t)).Handler()
	body := fixPayload()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/fix", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	serve() // warm: chaser, batch and decoder pools
	avg := testing.AllocsPerRun(200, serve)
	t.Logf("%v allocs per 1-tuple fix", avg)
	if avg > fixServeAllocsBudget {
		t.Errorf("warm 1-tuple ServeHTTP allocates %v objects, budget %d", avg, fixServeAllocsBudget)
	}
}
