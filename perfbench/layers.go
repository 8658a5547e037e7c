package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cerfix"
	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/faultfs"
	"cerfix/internal/jobs"
	"cerfix/internal/master"
	"cerfix/internal/pipeline"
	"cerfix/internal/region"
	"cerfix/internal/schema"
	"cerfix/internal/server"
)

// The traced run: the same seeded instances, loaded in-process, with
// the time of each served path attributed to the modules it crosses by
// timing the benchmark's calls into their public functions. It reports
// the per-layer metrics; tracing overhead shows as the gap between the
// traced and untraced in-process round trips.

// layerMetrics collects per-layer values in report order.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur is the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}

// mallocs reports the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer runs f n times and returns the allocations per call.
func allocsPer(n int, f func(i int)) float64 {
	before := mallocs()
	for i := range n {
		f(i)
	}
	return float64(mallocs()-before) / float64(n)
}

// inprocServer serves h on a loopback port, recording each request's
// ServeHTTP as a span nested in the client span named by the
// X-Bench-Span header.
type inprocServer struct {
	base string
	hs   *http.Server
	done chan error
}

func serveTraced(h http.Handler, rec *recorder) (*inprocServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.begin("server.serve_http", parent)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
	s := &inprocServer{base: "http://" + l.Addr().String() + "/api/v1", hs: &http.Server{Handler: wrapped}, done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(l) }()
	return s, nil
}

// close stops the server and waits for it.
func (s *inprocServer) close() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// tracedCall sends a request carrying the parent span id.
func tracedCall(method, url string, body []byte, parent int) ([]byte, error) {
	return callWith(method, url, body, map[string]string{"X-Bench-Span": strconv.Itoa(parent)})
}

// tracedRun builds the instances for seed and measures every layer.
func tracedRun(work string, seed uint64, dur time.Duration) (result, error) {
	instRoot := filepath.Join(work, "instances")
	served := servedSpec
	served.held, served.pool = writerRows(dur/2)+64, jobTuples
	served.checkpointCopy = true
	inst, err := buildInstance(instRoot, served, seed)
	if err != nil {
		return result{}, err
	}
	entry := entrySpec
	entry.held, entry.pool = 8, 512
	entryInst, err := buildInstance(instRoot, entry, seed)
	if err != nil {
		return result{}, err
	}
	csvPath, err := inst.writeJobCSV(filepath.Join(work, "inputs"), jobTuples)
	if err != nil {
		return result{}, err
	}
	m := layerMetrics{}
	var all tally
	rec := newRecorder()

	sys, err := measureLoad(inst.dir, m)
	if err != nil {
		return result{}, err
	}
	ref, err := buildReference(sys, inst, fixPool, jobTuples)
	if err != nil {
		return result{}, err
	}
	steps := []func() (tally, error){
		func() (tally, error) { return measureRequestPath(sys, inst, ref, rec, dur/2, m) },
		func() (tally, error) { return measureBulk(sys, ref, csvPath, m) },
		func() (tally, error) { return measureJobs(sys, ref, csvPath, work, m) },
		func() (tally, error) { return measureWrites(sys, inst, m) },
		func() (tally, error) { return measureMonitor(entryInst, rec, dur/6, m) },
	}
	for _, step := range steps {
		t, err := step()
		if err != nil {
			return result{}, err
		}
		all.add(t)
	}
	if err := rec.write(filepath.Join(work, "spans.json")); err != nil {
		return result{}, err
	}
	for _, r := range all.reasons {
		fmt.Fprintln(os.Stderr, "failure:", r)
	}
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// measureLoad times cerfix.Load of dir and attributes it: the WAL
// replay is the difference from loading the same checkpoint without
// its WAL tail, and the checkpoint load splits into the CSV parse and
// the rule-index build, timed separately on a fresh store. Each phase
// starts from a collected heap; what the split leaves over (manifest
// and rule parsing, and measurement noise) is load.unattributed_s.
func measureLoad(dir string, m layerMetrics) (*cerfix.System, error) {
	timeLoad := func(dir string) (*cerfix.System, time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		sys, err := cerfix.Load(dir)
		return sys, time.Since(t0), err
	}
	ckptSys, ckpt, err := timeLoad(dir + checkpointSuffix)
	if err != nil {
		return nil, err
	}
	rs := ckptSys.RuleSet()
	runtime.GC()
	st := master.New(dataset.PersonSchema())
	f, err := os.Open(filepath.Join(dir, "master.csv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t0 := time.Now()
	if err := st.Table().ReadCSV(f); err != nil {
		return nil, err
	}
	parse := time.Since(t0)
	t0 = time.Now()
	if err := st.PrepareForRules(rs); err != nil {
		return nil, err
	}
	index := time.Since(t0)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, total, err := timeLoad(dir)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	gcs := after.NumGC - before.NumGC
	runtime.GC()
	runtime.ReadMemStats(&after)
	m.set("load.total_s", total.Seconds(), "s")
	m.set("load.wal_replay_s", (total - ckpt).Seconds(), "s")
	m.set("load.csv_parse_s", parse.Seconds(), "s")
	m.set("load.index_build_s", index.Seconds(), "s")
	m.set("load.unattributed_s", (ckpt - parse - index).Seconds(), "s")
	m.set("load.heap_mb", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), "MB")
	m.set("load.gc_cycles", float64(gcs), "count")
	return sys, nil
}

// measureRequestPath attributes point-fix requests to their layers.
// An in-process server (server.New over the loaded system) answers
// 1-tuple /fix requests over loopback for window, beside the point-fix
// writer posting held-back rows to it at writeRate; after each traced
// round trip the handler's children are replayed on the same input.
// The writer uses the first held-back rows; measureWrites the rest.
func measureRequestPath(sys *cerfix.System, inst *instance, ref *reference, rec *recorder, window time.Duration, m layerMetrics) (tally, error) {
	var t tally
	h := server.New(sys).Handler()
	srv, err := serveTraced(h, rec)
	if err != nil {
		return t, err
	}
	defer srv.close()
	sch := sys.InputSchema()
	seed := schema.SetOfNames(sch, validatedAttrs...)
	enc := jobs.NewResultEncoder(sch)
	check := func(i int, got []byte, err error) {
		switch {
		case err != nil:
			t.fail(err.Error())
		case !bytes.Equal(got, ref.fixWant[i]):
			t.fail(fmt.Sprintf("in-process fix answer differs from the reference for input %d", i))
		default:
			t.ok()
		}
	}

	for k := range 200 { // warm-up
		got, err := call("POST", srv.base+"/fix", ref.fixBody[k])
		check(k, got, err)
	}
	var untraced []time.Duration
	var roots []int
	var ms0, ms1 runtime.MemStats
	runtime.GC() // start from the loaded system's own heap, as cerfixd does
	runtime.ReadMemStats(&ms0)
	skipped0, evaluated0 := sys.Engine().PrefilterStats()
	// Traced and untraced round trips alternate, so drift hits both
	// alike; GC cost is counted over all of them.
	start := time.Now()
	end := start.Add(window)
	held := &heldRows{rows: inst.heldRows}
	writes := make(chan writerResult, 1)
	go func() { writes <- runWriter(srv.base, held, start, end, 0, time.Second/writeRate) }()
	for i := 0; time.Now().Before(end); i++ {
		k := i % len(ref.fixBody)
		if i%2 == 0 {
			t0 := time.Now()
			got, err := call("POST", srv.base+"/fix", ref.fixBody[k])
			untraced = append(untraced, time.Since(t0))
			check(k, got, err)
			continue
		}
		var req fixRequest
		if err := json.Unmarshal(ref.fixBody[k], &req); err != nil {
			return t, err
		}
		root := rec.begin("fix.roundtrip", -1)
		got, err := tracedCall("POST", srv.base+"/fix", ref.fixBody[k], root)
		rec.end(root)
		check(k, got, err)
		roots = append(roots, root)
		serve, ok := rec.child(root, "server.serve_http")
		if !ok {
			return t, errors.New("traced request recorded no server.serve_http span")
		}
		var eng *core.Engine
		var tu *schema.Tuple
		rec.replay("cerfix.snapshot", serve, func() { eng = sys.SnapshotEngine() })
		rec.replay("schema.tuple_from_map", serve, func() { tu, err = schema.TupleFromMap(sch, req.Tuples[0]) })
		if err != nil {
			return t, err
		}
		var buf []byte
		var run int
		sink := pipeline.SinkFunc(func(r *pipeline.Result) error {
			id := rec.begin("jobs.encode", run)
			buf = enc.Append(buf[:0], r)
			rec.end(id)
			return nil
		})
		run = rec.beginReplay("pipeline.run", serve)
		_, err = pipeline.Run(context.Background(), eng, seed, pipeline.NewSliceSource([]*schema.Tuple{tu}), sink, nil)
		rec.end(run)
		if err != nil {
			return t, err
		}
		rec.replay("core.chase", run, func() { eng.Chase(tu, seed) })
	}
	w := <-writes
	t.add(w.t)
	inst.heldRows = inst.heldRows[held.next:]
	runtime.ReadMemStats(&ms1)
	perK := 1000 / float64(len(untraced)+len(roots))
	m.set("gc.cycles_per_1k_fix", float64(ms1.NumGC-ms0.NumGC)*perK, "count")
	m.set("gc.pause_ms_per_1k_fix", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6*perK, "ms")
	m.set("trace.fix_untraced_us", us(medianDur(untraced)), "us")
	skipped1, evaluated1 := sys.Engine().PrefilterStats()
	self := rec.selfTimes()
	layers := []struct{ span, metric string }{
		{"fix.roundtrip", "http.loopback_us"},
		{"server.serve_http", "server.fix_self_us"},
		{"cerfix.snapshot", "cerfix.snapshot_us"},
		{"schema.tuple_from_map", "schema.tuple_from_map_us"},
		{"pipeline.run", "pipeline.run_self_us"},
		{"core.chase", "core.chase_us"},
		{"jobs.encode", "jobs.encode_us"},
	}
	var rts []time.Duration
	for _, r := range roots {
		rts = append(rts, rec.dur(r))
	}
	rt := medianDur(rts)
	sum := time.Duration(0)
	for _, l := range layers {
		v := medianDur(self[l.span])
		sum += v
		m.set(l.metric, us(v), "us")
	}
	m.set("trace.fix_roundtrip_us", us(rt), "us")
	m.set("trace.unattributed_us", us(rt-sum), "us")
	m.set("trace.fix_requests", float64(len(roots)), "count")
	if d := (skipped1 - skipped0) + (evaluated1 - evaluated0); d > 0 {
		m.set("core.prefilter_skip_ratio", float64(skipped1-skipped0)/float64(d), "ratio")
	}

	// Allocation counts, untimed, over the same inputs.
	const n = 500
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest("POST", "/api/v1/fix", bytes.NewReader(ref.fixBody[i%len(ref.fixBody)]))
	}
	m.set("server.fix_allocs", allocsPer(n, func(i int) { h.ServeHTTP(httptest.NewRecorder(), reqs[i]) }), "count")
	eng := sys.SnapshotEngine()
	tuples := make([]*schema.Tuple, n)
	for i := range tuples {
		if tuples[i], err = schema.TupleFromMap(sch, ref.jobTuples[i]); err != nil {
			return t, err
		}
	}
	discard := pipeline.SinkFunc(func(*pipeline.Result) error { return nil })
	m.set("pipeline.run_allocs", allocsPer(n, func(i int) {
		_, _ = pipeline.Run(context.Background(), eng, seed, pipeline.NewSliceSource(tuples[i:i+1]), discard, nil)
	}), "count")
	m.set("core.chase_allocs", allocsPer(n, func(i int) { eng.Chase(tuples[i], seed) }), "count")
	return t, nil
}

// measureBulk times the per-tuple work of a job on the job's tuples:
// each source's decode, the pipeline, a sequential chase loop and
// result encoding. Each figure is the median of three passes.
func measureBulk(sys *cerfix.System, ref *reference, csvPath string, m layerMetrics) (tally, error) {
	var t tally
	sch := sys.InputSchema()
	seed := schema.SetOfNames(sch, validatedAttrs...)
	eng := sys.SnapshotEngine()
	n := len(ref.jobTuples)
	var jsonl []byte
	for _, tu := range ref.jobTuples {
		line, err := json.Marshal(tu)
		if err != nil {
			return t, err
		}
		jsonl = append(append(jsonl, line...), '\n')
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		return t, err
	}
	tuples := make([]*schema.Tuple, n)
	for i, tm := range ref.jobTuples {
		if tuples[i], err = schema.TupleFromMap(sch, tm); err != nil {
			return t, err
		}
	}
	perTuple := func(f func() error) (float64, error) {
		var runs []float64
		for range 3 {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(n))
		}
		return median(runs), nil
	}
	drain := func(src pipeline.Source) error {
		for {
			if _, err := src.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	discard := pipeline.SinkFunc(func(*pipeline.Result) error { return nil })
	var results []*pipeline.Result
	collect := pipeline.SinkFunc(func(r *pipeline.Result) error { results = append(results, r.Clone()); return nil })
	if _, err := pipeline.Run(context.Background(), eng, seed, pipeline.NewSliceSource(tuples), collect, nil); err != nil {
		return t, err
	}
	enc := jobs.NewResultEncoder(sch)
	var buf []byte
	steps := []struct {
		name string
		f    func() error
	}{
		{"pipeline.jsonl_decode_ns", func() error { return drain(pipeline.NewJSONLSource(sch, bytes.NewReader(jsonl))) }},
		{"pipeline.csv_decode_ns", func() error {
			src, err := pipeline.NewCSVSource(sch, bytes.NewReader(csvData))
			if err != nil {
				return err
			}
			return drain(src)
		}},
		{"pipeline.run_ns", func() error {
			_, err := pipeline.Run(context.Background(), eng, seed, pipeline.NewSliceSource(tuples), discard, nil)
			return err
		}},
		{"core.chase_ns", func() error {
			ch := eng.AcquireChaser()
			defer ch.Release()
			for _, tu := range tuples {
				ch.ChaseScratch(tu, seed)
			}
			return nil
		}},
		{"jobs.encode_ns", func() error {
			buf = buf[:0]
			for _, r := range results {
				buf = append(enc.Append(buf, r), '\n')
			}
			return nil
		}},
	}
	for _, s := range steps {
		v, err := perTuple(s.f)
		if err != nil {
			return t, err
		}
		m.set(s.name, v, "ns")
	}
	if bytes.Equal(buf, ref.jobWant) {
		t.ok()
	} else {
		t.fail("encoded bulk results differ from the reference artifact")
	}
	m.set("pipeline.allocs_per_tuple", allocsPer(1, func(int) {
		_, _ = pipeline.Run(context.Background(), eng, seed, pipeline.NewSliceSource(tuples), discard, nil)
	})/float64(n), "count")
	return t, nil
}

// measureJobs opens an in-process jobs manager over the loaded system
// and runs two inline and two server-side CSV jobs through it.
func measureJobs(sys *cerfix.System, ref *reference, csvPath, work string, m layerMetrics) (tally, error) {
	var t tally
	dir := filepath.Join(work, "trace-jobs")
	t0 := time.Now()
	mgr, err := jobs.Open(jobs.Config{
		Dir: dir, Schema: sys.InputSchema(), Snapshot: sys.SnapshotEngine,
		MasterMemory: sys.MemStats, InputRoot: filepath.Dir(csvPath),
	})
	if err != nil {
		return t, err
	}
	m.set("jobs.open_s", time.Since(t0).Seconds(), "s")
	defer mgr.Close(context.Background())
	var inline, file, wait, run []float64
	for k := range 4 {
		t0 := time.Now()
		var job jobs.Job
		if k%2 == 0 {
			job, err = mgr.SubmitInline(validatedAttrs, ref.jobTuples)
			inline = append(inline, float64(time.Since(t0))/1e6)
		} else {
			job, err = mgr.SubmitFile(validatedAttrs, csvPath, jobs.FormatCSV)
			file = append(file, float64(time.Since(t0))/1e6)
		}
		if err != nil {
			return t, err
		}
		for !job.State.Terminal() {
			time.Sleep(time.Millisecond)
			if job, err = mgr.Get(job.ID); err != nil {
				return t, err
			}
		}
		path, err := mgr.ResultsPath(job.ID)
		if err != nil {
			return t, err
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return t, err
		}
		if job.State != jobs.StateDone || !bytes.Equal(got, ref.jobWant) {
			t.fail(fmt.Sprintf("in-process job %s ended %s with a %d-byte artifact", job.ID, job.State, len(got)))
			continue
		}
		t.ok()
		wait = append(wait, float64(job.Started.Sub(job.Submitted))/1e6)
		run = append(run, job.Finished.Sub(job.Started).Seconds())
	}
	m.set("jobs.submit_inline_ms", median(inline), "ms")
	m.set("jobs.submit_file_ms", median(file), "ms")
	m.set("jobs.queue_wait_ms", median(wait), "ms")
	m.set("jobs.run_s", median(run), "s")

	var syncs []float64
	for k := range 3 {
		t0 := time.Now()
		f, err := faultfs.Create(faultfs.OS, filepath.Join(dir, fmt.Sprintf("fsync-probe-%d.jsonl", k)))
		if err != nil {
			return t, err
		}
		if _, err := f.Write(ref.jobWant); err != nil {
			f.Close()
			return t, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return t, err
		}
		if err := f.Close(); err != nil {
			return t, err
		}
		syncs = append(syncs, float64(time.Since(t0))/1e6)
	}
	m.set("jobs.artifact_fsync_ms", median(syncs), "ms")
	return t, nil
}

// measureWrites times master inserts of held-back rows, each under a
// fresh live snapshot as concurrent /fix requests would hold, and
// reads the copy-on-write debt they leave.
func measureWrites(sys *cerfix.System, inst *instance, m layerMetrics) (tally, error) {
	var t tally
	attrs := dataset.PersonSchema().AttrNames()
	var lat []time.Duration
	var live []*core.Engine
	for _, row := range inst.heldRows {
		vals := make([]string, len(attrs))
		for i, a := range attrs {
			vals[i] = row[a]
		}
		live = append(live, sys.SnapshotEngine())
		t0 := time.Now()
		err := sys.AddMasterRow(vals...)
		lat = append(lat, time.Since(t0))
		if err != nil {
			t.fail(err.Error())
			continue
		}
		t.ok()
	}
	m.set("master.insert_us", us(medianDur(lat)), "us")
	m.set("master.cow_debt_bytes", float64(sys.MemStats().Table.CowCopied), "bytes")
	runtime.KeepAlive(live)
	return t, nil
}

// measureMonitor times the data monitor on the entry instance: the
// region build, then clerk sessions over an in-process server for
// window, then the same sessions replayed against the monitor's public
// functions so server.session_self_us is ServeHTTP minus them.
func measureMonitor(inst *instance, rec *recorder, window time.Duration, m layerMetrics) (tally, error) {
	var t tally
	sys, err := cerfix.Load(inst.dir)
	if err != nil {
		return t, err
	}
	t0 := time.Now()
	regs := region.NewFinder(sys.Engine()).TopK(nil)
	m.set("region.topk_s", time.Since(t0).Seconds(), "s")
	rows := 0
	for _, r := range regs {
		rows += len(r.Tableau.Rows)
	}
	m.set("region.tableau_rows", float64(rows), "count")

	h := server.New(sys).Handler()
	srv, err := serveTraced(h, rec)
	if err != nil {
		return t, err
	}
	defer srv.close()
	// One untimed session builds the monitor's regions.
	if _, err := clerkSession(call, srv.base, inst.inputs[0]); err != nil {
		return t, err
	}
	var served []int // root span per session
	var ins []input
	for end, i := time.Now().Add(window), 0; time.Now().Before(end); i++ {
		in := inst.inputs[i%len(inst.inputs)]
		root := rec.begin("session", -1)
		do := func(method, url string, body []byte) ([]byte, error) {
			op := rec.begin("session.op", root)
			defer rec.end(op)
			return tracedCall(method, url, body, op)
		}
		_, err := clerkSession(do, srv.base, in)
		rec.end(root)
		if err != nil {
			t.fail(err.Error())
			continue
		}
		t.ok()
		served = append(served, root)
		ins = append(ins, in)
	}
	var st struct {
		AuditRecords int `json:"audit_records"`
		OpenSessions int `json:"open_sessions"`
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/status", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		return t, err
	}
	m.set("server.sessions_retained", float64(st.OpenSessions), "count")
	m.set("audit.records_per_session", float64(st.AuditRecords)/float64(max(st.OpenSessions, 1)), "count")

	// Replay each served session against the monitor directly.
	mon := sys.Monitor()
	serveBySession := rec.totalsUnder("server.serve_http")
	var newSess, sugg, valid, self []time.Duration
	for k, in := range ins {
		serve := serveBySession[served[k]]
		var monitorTime time.Duration
		timed := func(dst *[]time.Duration, f func()) {
			t0 := time.Now()
			f()
			d := time.Since(t0)
			*dst = append(*dst, d)
			monitorTime += d
		}
		tu, err := schema.TupleFromMap(sys.InputSchema(), in.dirty)
		if err != nil {
			return t, err
		}
		var sess *cerfix.Session
		timed(&newSess, func() { sess, err = mon.NewSession(tu) })
		if err != nil {
			return t, err
		}
		for !sess.Done() {
			var attrs []string
			timed(&sugg, func() { attrs = sess.Suggestion() })
			if len(attrs) == 0 {
				attrs = sess.Remaining()
			}
			as := make(map[string]string, len(attrs))
			for _, a := range attrs {
				as[a] = in.truth[a]
			}
			timed(&valid, func() { _, err = sess.Validate(as) })
			if err != nil {
				return t, err
			}
		}
		// The server also renders the final suggestion once per answer.
		timed(&sugg, func() { sess.Suggestion() })
		if !sess.Certain() || !maps.Equal(sess.Tuple.Map(), in.truth) {
			t.fail("replayed session did not reach its ground truth")
		}
		self = append(self, serve-monitorTime)
	}
	m.set("monitor.new_session_us", us(medianDur(newSess)), "us")
	m.set("monitor.suggestion_us", us(medianDur(sugg)), "us")
	m.set("monitor.validate_us", us(medianDur(valid)), "us")
	m.set("server.session_self_us", us(medianDur(self)), "us")
	m.set("trace.sessions", float64(len(served)), "count")
	return t, nil
}
