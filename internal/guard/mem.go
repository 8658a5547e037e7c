package guard

import (
	"fmt"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"cerfix/internal/admission"
)

// MemMonitor samples the Go heap against soft/hard watermarks and
// exposes the hysteresis state (admission.Watermarks) for load
// shedding: soft sheds new job submits with 429 + Retry-After, hard is
// the memory_degraded state surfaced on /api/v1/status. Admission by
// queue depth alone cannot see a queue of small jobs over huge rows;
// this closes that gap with the signal that actually OOMs a process.
type MemMonitor struct {
	marks admission.Watermarks
	// sample reads the current heap size; replaceable for tests.
	sample   func() uint64
	interval time.Duration

	mu          sync.Mutex
	state       admission.Pressure
	heap        uint64
	transitions int64
	onChange    func(old, new admission.Pressure, heapBytes uint64)

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// MemConfig wires a MemMonitor.
type MemConfig struct {
	// Soft and Hard are heap watermarks in bytes (0 disables a level).
	Soft, Hard uint64
	// RecoverFrac is the hysteresis recovery fraction (default 0.9).
	RecoverFrac float64
	// Interval is the background sampling period (default 1s).
	Interval time.Duration
	// Sample overrides heap sampling — tests inject a fake heap. Nil
	// reads runtime/metrics' live-objects heap size.
	Sample func() uint64
}

// NewMemMonitor builds a monitor; call Start for background sampling
// or Poll directly for deterministic tests.
func NewMemMonitor(cfg MemConfig) *MemMonitor {
	m := &MemMonitor{
		marks:    admission.Watermarks{Soft: cfg.Soft, Hard: cfg.Hard, RecoverFrac: cfg.RecoverFrac},
		sample:   cfg.Sample,
		interval: cfg.Interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if m.sample == nil {
		m.sample = heapInUse
	}
	if m.interval <= 0 {
		m.interval = time.Second
	}
	return m
}

// heapInUse reads the bytes occupied by live heap objects — the
// runtime/metrics successor to MemStats.HeapAlloc, sampled without a
// stop-the-world. That figure counts an object only once the span
// holding it leaves its P's allocation cache, so before any span has
// been flushed it reads 0 with hundreds of kilobytes live (a fresh
// GOMAXPROCS=1 process does this). A zero reading falls back to the
// bytes of in-use heap spans (objects + unused), which counts cached
// spans too: an upper bound, and never zero once the heap exists.
func heapInUse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	var objects, unused uint64
	if s[0].Value.Kind() == metrics.KindUint64 {
		objects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		unused = s[1].Value.Uint64()
	}
	if objects > 0 {
		return objects
	}
	return objects + unused
}

// SetOnChange installs the transition hook (logging). Call before
// Start; the hook runs on the sampling goroutine.
func (m *MemMonitor) SetOnChange(fn func(old, new admission.Pressure, heapBytes uint64)) {
	m.mu.Lock()
	m.onChange = fn
	m.mu.Unlock()
}

// Start launches background sampling at the configured interval.
func (m *MemMonitor) Start() {
	m.startOnce.Do(func() {
		go func() {
			defer close(m.done)
			t := time.NewTicker(m.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					m.Poll()
				case <-m.stop:
					return
				}
			}
		}()
	})
}

// Close stops background sampling and waits for it to exit.
func (m *MemMonitor) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.startOnce.Do(func() { close(m.done) })
	<-m.done
}

// Poll takes one sample and advances the hysteresis state, returning
// the new state. Exported so tests drive transitions deterministically.
func (m *MemMonitor) Poll() admission.Pressure {
	heap := m.sample()
	m.mu.Lock()
	old := m.state
	next := m.marks.Next(old, heap)
	m.state = next
	m.heap = heap
	hook := m.onChange
	if next != old {
		m.transitions++
	}
	m.mu.Unlock()
	if next != old && hook != nil {
		hook(old, next, heap)
	}
	return next
}

// State returns the pressure level as of the last Poll.
func (m *MemMonitor) State() admission.Pressure {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// RetryAfter is the back-off hint attached to memory sheds: long
// enough for at least one sampling cycle (and GC) to observe a
// recovery, never under a second.
func (m *MemMonitor) RetryAfter() time.Duration {
	if r := 2 * m.interval; r > time.Second {
		return r
	}
	return time.Second
}

// MemStatus is the monitor's wire shape under /api/v1/status.
type MemStatus struct {
	// State is "ok", "soft" or "hard"; hard is the memory_degraded
	// condition.
	State string `json:"state"`
	// HeapBytes is the last sampled live-heap size.
	HeapBytes uint64 `json:"heap_bytes"`
	// SoftBytes and HardBytes echo the watermarks (0 = disabled).
	SoftBytes uint64 `json:"soft_bytes"`
	HardBytes uint64 `json:"hard_bytes"`
	// Transitions counts state changes since start — a flapping
	// detector that should stay near zero thanks to hysteresis.
	Transitions int64 `json:"transitions"`
}

// Status snapshots the monitor for the status endpoint.
func (m *MemMonitor) Status() MemStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemStatus{
		State:       m.state.String(),
		HeapBytes:   m.heap,
		SoftBytes:   m.marks.Soft,
		HardBytes:   m.marks.Hard,
		Transitions: m.transitions,
	}
}

// ParseBytes parses a human byte size: a bare number of bytes, or a
// number with a KiB/MiB/GiB/TiB (or KB/MB/GB/TB, same powers of 1024)
// suffix, case-insensitive, optional fraction ("1.5GiB"). Empty means
// 0 (disabled).
func ParseBytes(s string) (uint64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	upper := strings.ToUpper(t)
	mult := uint64(1)
	for _, u := range []struct {
		suffix string
		mult   uint64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			upper = strings.TrimSuffix(upper, u.suffix)
			break
		}
	}
	num := strings.TrimSpace(upper)
	if num == "" {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return uint64(f * float64(mult)), nil
}
