package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory, with parent links,
// and writes them out when the run ends. Spans are recorded by the
// benchmark around its calls into each module; nothing inside the
// program is instrumented.
//
// A span's children either nest inside its interval (a call the
// benchmark can wrap while it happens, such as the HTTP handler inside
// a round trip, or the result encoder inside the pipeline's sink) or
// are replays: the same call, on the same input, re-executed right
// after the parent because it runs inside code the benchmark cannot
// wrap (the snapshot capture inside the /fix handler, the chase inside
// pipeline.Run). Self time is the span's duration minus the union of
// its nested children and the sum of its replayed children, so the
// self times of one request add up to its root span exactly.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Start: now})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// beginReplay opens a replayed child of parent.
func (r *recorder) beginReplay(name string, parent int) int {
	id := r.begin(name, parent)
	r.mu.Lock()
	r.spans[id].Replay = true
	r.mu.Unlock()
	return id
}

// replay times f as a replayed child of parent.
func (r *recorder) replay(name string, parent int, f func()) {
	id := r.beginReplay(name, parent)
	f()
	r.end(id)
}

// child returns the last span named name directly under parent.
func (r *recorder) child(parent int, name string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i > parent; i-- {
		if r.spans[i].Parent == parent && r.spans[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// totalsUnder sums the durations of spans named name by the id of
// their grandparent.
func (r *recorder) totalsUnder(name string) map[int]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Name == name && s.Parent >= 0 {
			out[r.spans[s.Parent].Parent] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

func (r *recorder) dur(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// selfTimes returns every span's self time, by span name, in
// recording order.
func (r *recorder) selfTimes() map[string][]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range r.spans {
		self := s.End - s.Start
		var nested [][2]int64
		for _, k := range kids[s.ID] {
			if k.Replay {
				self -= k.End - k.Start
			} else {
				nested = append(nested, [2]int64{max(k.Start, s.Start), min(k.End, s.End)})
			}
		}
		self -= covered(nested)
		out[s.Name] = append(out[s.Name], time.Duration(self))
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
