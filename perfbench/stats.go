package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations of one operation kind.
type samples []time.Duration

// quantile returns the q-quantile (0..1) by the nearest-rank rule, in
// milliseconds; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	i = max(0, min(i, len(c)-1))
	return float64(c[i]) / float64(time.Millisecond)
}

// ms is the median in milliseconds.
func (s samples) ms() float64 { return s.quantile(0.5) }

// median of plain values (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// tally counts attempted and failed operations and remembers the
// first few failure reasons for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, reason)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, r)
		}
	}
}
