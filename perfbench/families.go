package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cerfix/internal/textutil"
)

// The three client families of the served paths. Each runs against a
// live daemon for a fixed window and returns raw samples; main turns
// them into metrics.

// heldRows hands the instance's held-back master rows to one daemon's
// writers, each row once.
type heldRows struct {
	rows []map[string]string
	next int
}

func (h *heldRows) take() (map[string]string, bool) {
	if h.next >= len(h.rows) {
		return nil, false
	}
	h.next++
	return h.rows[h.next-1], true
}

// writerResult is one master writer's account.
type writerResult struct {
	// lat is each write's latency, timed from when it was due; late is
	// how long after its due time an open-loop generator sent it.
	lat, late samples
	// acks are the completion times of successful writes.
	acks []time.Time
	t    tally
}

// post sends one master row and accounts the write, timed from due.
func (res *writerResult) post(base string, row map[string]string, due time.Time) {
	body, _ := json.Marshal(map[string]any{"values": row})
	_, err := call("POST", base+"/master", body)
	done := time.Now()
	if err != nil {
		res.t.fail(err.Error())
		return
	}
	res.t.ok()
	res.lat = append(res.lat, done.Sub(due))
	res.acks = append(res.acks, done)
}

// runWriter posts held master rows open-loop: write k is due at
// start+first+k*period, and no write is due at or after end.
func runWriter(base string, held *heldRows, start, end time.Time, first, period time.Duration) writerResult {
	var res writerResult
	for k := 0; ; k++ {
		due := start.Add(first + time.Duration(k)*period)
		if !due.Before(end) {
			return res
		}
		row, ok := held.take()
		if !ok {
			res.t.fail("writer ran out of held-back rows")
			return res
		}
		time.Sleep(time.Until(due))
		res.late = append(res.late, time.Since(due))
		res.post(base, row, due)
	}
}

// runBurst posts n held master rows back to back, each due when the
// previous one is acknowledged.
func runBurst(base string, held *heldRows, n int) writerResult {
	var res writerResult
	for range n {
		row, ok := held.take()
		if !ok {
			res.t.fail("writer ran out of held-back rows")
			return res
		}
		res.post(base, row, time.Now())
	}
	return res
}

// fixResult is the account of one point-fix slice.
type fixResult struct {
	lat     samples
	elapsed time.Duration
	t       tally
	w       writerResult
}

// writeRate is the point-fix writer's master insert rate (rows/s).
const writeRate = 20

// runFixes drives one closed-loop client posting 1-tuple /fix
// requests drawn uniformly from the reference pool for dur, beside an
// open-loop writer at writeRate rows/s when held is not nil. Every
// answer is compared byte for byte with the reference. One client, not
// two, keeps the daemon, its garbage collector and the load generator
// within the two CPUs the benchmark is sized for; with two, every
// collection cycle of the 200k-row daemon queued requests behind it and
// the median latency swung with where the cycles fell.
func runFixes(d *daemon, ref *reference, held *heldRows, dur time.Duration, rng *textutil.RNG) fixResult {
	start := time.Now()
	end := start.Add(dur)
	var res fixResult
	writes := make(chan writerResult, 1)
	if held == nil {
		writes <- writerResult{}
	} else {
		go func() { writes <- runWriter(d.base, held, start, end, 0, time.Second/writeRate) }()
	}
	for time.Now().Before(end) {
		i := rng.Intn(len(ref.fixBody))
		t0 := time.Now()
		got, err := call("POST", d.base+"/fix", ref.fixBody[i])
		switch {
		case err != nil:
			res.t.fail(err.Error())
		case !bytes.Equal(got, ref.fixWant[i]):
			res.t.fail(fmt.Sprintf("fix answer differs from the reference for input %d: %.200s", i, got))
		default:
			res.t.ok()
			res.lat = append(res.lat, time.Since(t0))
		}
	}
	res.w = <-writes
	res.elapsed = time.Since(start)
	return res
}

// jobResult is the account of one inline job and one file job.
type jobResult struct {
	inline, file time.Duration
	t            tally
}

// jobBodies are the two submit requests of the bulk-job family: the
// tuples uploaded inline, and the same tuples as a server-side CSV.
type jobBodies struct{ inline, file []byte }

func newJobBodies(ref *reference, csvPath string) jobBodies {
	inline, _ := json.Marshal(map[string]any{"validated": validatedAttrs, "tuples": ref.jobTuples})
	file, _ := json.Marshal(map[string]any{"validated": validatedAttrs, "input_path": csvPath, "format": "csv"})
	return jobBodies{inline, file}
}

// runJobPair submits an inline job and then a file job, waits for each
// to be done and compares its artifact with the reference.
func runJobPair(d *daemon, ref *reference, b jobBodies) jobResult {
	var res jobResult
	for k, body := range [][]byte{b.inline, b.file} {
		t0 := time.Now()
		err := runJob(d, body, ref.jobWant)
		took := time.Since(t0)
		if err != nil {
			res.t.fail(err.Error())
			continue
		}
		res.t.ok()
		if k == 0 {
			res.inline = took
		} else {
			res.file = took
		}
	}
	return res
}

// runJob submits one job, polls it to a terminal state and checks the
// artifact the daemon fsynced.
func runJob(d *daemon, body, want []byte) error {
	data, err := call("POST", d.base+"/jobs", body)
	if err != nil {
		return err
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return fmt.Errorf("job submit answer: %w", err)
	}
	for job.State == "queued" || job.State == "running" {
		time.Sleep(3 * time.Millisecond)
		if data, err = call("GET", d.base+"/jobs/"+job.ID, nil); err != nil {
			return err
		}
		if err := json.Unmarshal(data, &job); err != nil {
			return fmt.Errorf("job status answer: %w", err)
		}
	}
	if job.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	got, err := os.ReadFile(filepath.Join(d.jobsDir, job.ID, "results.jsonl"))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("job %s artifact (%d bytes) differs from the reference (%d bytes)", job.ID, len(got), len(want))
	}
	return nil
}

// entryResult is the account of one data-entry slice.
type entryResult struct {
	sess samples
	// asserted counts attributes the clerk validated, over sessions.
	asserted, sessions int
	// rate is the sessions completed per second once the first open
	// after the writes has answered, that is with the regions rebuilt;
	// the rebuild stall itself is the refresh sample.
	rate float64
	// refresh is the time from the last write's acknowledgement to the
	// completion of the first session open sent after it.
	refresh time.Duration
	t       tally
	w       writerResult
}

// entryWrites is how many master rows open each data-entry slice,
// posted back to back before the clerk starts. They are not spaced
// out: a generator idling between writes woke late by a varying
// fraction of a millisecond, as much as a write on the small master
// takes.
const entryWrites = 5

// session is the monitor's wire shape, as far as the clerk reads it.
type session struct {
	ID         int64             `json:"id"`
	Tuple      map[string]string `json:"tuple"`
	Remaining  []string          `json:"remaining"`
	Suggestion []string          `json:"suggestion"`
	Done       bool              `json:"done"`
	Certain    bool              `json:"certain"`
}

// runEntry opens with entryWrites master writes (none when held is
// nil), then drives one closed-loop clerk through the paper's Fig. 3
// flow for n sessions: open a session with a dirty tuple, validate
// exactly the suggested attributes with ground-truth values (the
// remaining ones when the suggestion is empty), repeat until done.
// Every session must end certain and equal to its ground truth. Each
// write clears the monitor, so the first session open after the writes
// rebuilds the certain regions while holding the server mutex; that
// open gives the refresh sample, and the stall falls inside the slice.
// The slice is a session count, not a time, so that every run makes the
// daemon retain the same sessions and its peak RSS does not follow the
// host's speed. One clerk, not two: with two, their requests queued on
// the server mutex and on both CPUs, and session throughput swung by
// half from slice to slice.
func runEntry(d *daemon, inst *instance, held *heldRows, n int, rng *textutil.RNG) entryResult {
	var res entryResult
	if held != nil {
		res.w = runBurst(d.base, held, entryWrites)
	}
	var first time.Time // completion of the first open after the writes
	do := func(method, url string, body []byte) ([]byte, error) {
		data, err := call(method, url, body)
		if err == nil && first.IsZero() && strings.HasSuffix(url, "/sessions") {
			first = time.Now()
		}
		return data, err
	}
	var done []time.Time
	for range n {
		in := inst.inputs[rng.Intn(len(inst.inputs))]
		t0 := time.Now()
		asserted, err := clerkSession(do, d.base, in)
		if err != nil {
			res.t.fail(err.Error())
			continue
		}
		end := time.Now()
		res.t.ok()
		res.sess = append(res.sess, end.Sub(t0))
		res.asserted += asserted
		res.sessions++
		done = append(done, end)
	}
	if first.IsZero() {
		return res
	}
	if k := len(res.w.acks); k > 0 {
		res.refresh = first.Sub(res.w.acks[k-1])
	}
	after := 0
	for _, t := range done {
		if t.After(first) {
			after++
		}
	}
	res.rate = float64(after) / time.Since(first).Seconds()
	return res
}

// caller sends one request; call is the plain one.
type caller func(method, url string, body []byte) ([]byte, error)

// clerkSession runs one session against the API at base to completion
// and checks it, returning how many attributes the clerk asserted.
func clerkSession(do caller, base string, in input) (int, error) {
	body, _ := json.Marshal(map[string]any{"tuple": in.dirty})
	data, err := do("POST", base+"/sessions", body)
	if err != nil {
		return 0, err
	}
	asserted := 0
	var s session
	if err := json.Unmarshal(data, &s); err != nil {
		return 0, fmt.Errorf("session answer: %w", err)
	}
	for round := 0; !s.Done; round++ {
		if round == 20 {
			return 0, fmt.Errorf("session %d not done after %d rounds", s.ID, round)
		}
		attrs := s.Suggestion
		if len(attrs) == 0 {
			attrs = s.Remaining
		}
		assertions := make(map[string]string, len(attrs))
		for _, a := range attrs {
			assertions[a] = in.truth[a]
		}
		asserted += len(attrs)
		body, _ := json.Marshal(map[string]any{"assertions": assertions})
		data, err := do("POST", fmt.Sprintf("%s/sessions/%d/validate", base, s.ID), body)
		if err != nil {
			return 0, err
		}
		var v struct {
			Session session `json:"session"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return 0, fmt.Errorf("validate answer: %w", err)
		}
		s = v.Session
	}
	if !s.Certain || !maps.Equal(s.Tuple, in.truth) {
		return 0, fmt.Errorf("session %d ended certain=%v with %v, want %v", s.ID, s.Certain, s.Tuple, in.truth)
	}
	return asserted, nil
}
