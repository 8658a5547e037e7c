// Command perfbench measures CerFix on its served paths: it starts the
// real cerfixd as a child process on a seeded saved instance and
// drives it over loopback with point fixes, async bulk jobs and
// data-entry sessions, checking every answer against an in-process
// reference. With -trace 1 it instead loads the same instances
// in-process and attributes the time of each path to the modules it
// crosses. See README.md in this directory.
//
// Usage (run.sh builds the binaries and passes -cerfixd):
//
//	perfbench -workload point-fix|entry -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"cerfix/internal/textutil"
)

// Instance sizes. The served instance backs point-fix; the entry
// instance is small because the data monitor's certain regions are
// rebuilt on the first session after every master write.
var (
	servedSpec = instanceSpec{name: "served", rows: 200000, walTail: 2000}
	entrySpec  = instanceSpec{name: "entry", rows: 300, walTail: 30}
)

const (
	// fixPool is how many distinct inputs point-fix clients draw from.
	fixPool = 1024
	// jobTuples is the tuple count of every bulk job.
	jobTuples = 10000
	// boots is how many times a run starts its primary daemon; setup_s
	// is the median.
	boots = 3
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// live tracks running daemons so a fatal error can stop them.
var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

func track(d *daemon)   { liveMu.Lock(); live[d] = true; liveMu.Unlock() }
func untrack(d *daemon) { liveMu.Lock(); delete(live, d); liveMu.Unlock(); d.stop() }

func fatal(err error) {
	liveMu.Lock()
	for d := range live {
		d.stop()
	}
	liveMu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func main() {
	var (
		workload = flag.String("workload", "", "point-fix or entry")
		seed     = flag.Uint64("seed", 1, "seed of the generated instance and inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
		bin      = flag.String("cerfixd", ".bench_build/cerfixd", "cerfixd binary")
		workDir  = flag.String("work", ".bench_build/work", "scratch directory for instances, job inputs and daemon state")
	)
	flag.Parse()
	switch *workload {
	case "point-fix", "entry":
	default:
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	work, err := filepath.Abs(*workDir)
	if err != nil {
		fatal(err)
	}
	if err := os.RemoveAll(work); err != nil {
		fatal(err)
	}
	// The whole run must end well inside three minutes, and a run that
	// is interrupted still stops its daemons.
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		select {
		case s := <-sig:
			fatal(fmt.Errorf("interrupted by %v", s))
		case <-time.After(170 * time.Second):
			fatal(fmt.Errorf("run exceeded 170s"))
		}
	}()
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = tracedRun(work, *seed, dur)
	} else {
		res, err = servedRun(*workload, *bin, work, *seed, dur)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// rounds is how many times a run cycles through the three client
// families. Each round gives every family a slice; the reported value
// of a rate or a median latency is the median over rounds, so a host
// slowdown that hits one or two slices barely moves it.
const rounds = 5

// Slice lengths per round: the point fixes run for --seconds/rounds;
// the clerk runs clerkRate[workload] sessions per second of that (at
// about 1,000 sessions/s, plus the region rebuild the slice opens
// with); jobPairs inline and file jobs run, whatever they take. Each
// workload gives its own family the larger share.
var clerkRate = map[string]float64{"point-fix": 300, "entry": 1000}

const jobPairs = 2

// warmWindow is the unmeasured warm-up of each family before the first
// round, after the daemons have answered their start-up probes.
const warmWindow = 1500 * time.Millisecond

// servedRun measures one workload against real daemons.
func servedRun(workload, bin, work string, seed uint64, dur time.Duration) (result, error) {
	instRoot := filepath.Join(work, "instances")
	inputRoot := filepath.Join(work, "inputs")
	phase := time.Now()
	lap := func(name string) {
		fmt.Fprintf(os.Stderr, "phase %s %.2f s\n", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	fixDur := dur / rounds
	clerkN := int(clerkRate[workload] * fixDur.Seconds())

	// Instances, inputs and references are built once per seed, before
	// any daemon starts and outside every timed window.
	entry := entrySpec
	entry.held = rounds*entryWrites + 8
	entry.pool = jobTuples
	entryInst, entryRef, entryCSV, err := prepare(instRoot, inputRoot, entry, seed)
	if err != nil {
		return result{}, err
	}
	primary, ref, csvPath := entryInst, entryRef, entryCSV
	if workload == "point-fix" {
		served := servedSpec
		served.held = writerRows(dur+warmWindow) + 8
		served.pool = jobTuples
		if primary, ref, csvPath, err = prepare(instRoot, inputRoot, served, seed); err != nil {
			return result{}, err
		}
	}
	// Free the reference systems before the daemons start.
	runtime.GC()
	debug.FreeOSMemory()
	lap("prepare")

	var all tally
	probeFix := func(d *daemon) func() error {
		return func() error { _, err := call("POST", d.base+"/fix", ref.fixBody[0]); return err }
	}
	probeEntry := func(d *daemon) func() error {
		return func() error { _, err := clerkSession(call, d.base, entryInst.inputs[0]); return err }
	}
	probe := probeFix
	if workload == "entry" {
		probe = probeEntry
	}
	var setups []float64
	var d *daemon
	for b := range boots {
		if d != nil {
			untrack(d)
		}
		if d, err = startDaemon(bin, work, primary.dir, inputRoot, b); err != nil {
			return result{}, err
		}
		track(d)
		s, err := waitReady(d, 120*time.Second, probe(d))
		if err != nil {
			return result{}, err
		}
		all.ok()
		setups = append(setups, s.Seconds())
	}
	defer untrack(d)
	lap("boots")
	// Sessions always run on an entry-instance daemon: the served
	// instance's regions take minutes to build. For point-fix that is a
	// second daemon beside the first.
	clerkD := d
	if workload == "point-fix" {
		if clerkD, err = startDaemon(bin, work, entryInst.dir, inputRoot, boots); err != nil {
			return result{}, err
		}
		track(clerkD)
		defer untrack(clerkD)
		if _, err := waitReady(clerkD, 120*time.Second, probeEntry(clerkD)); err != nil {
			return result{}, err
		}
		all.ok()
	}
	// The fix writer runs on the served instance only: at 20 rows/s it
	// would grow the entry master, and with it every region rebuild,
	// from round to round.
	var fixHeld *heldRows
	if workload == "point-fix" {
		fixHeld = &heldRows{rows: primary.heldRows}
	}
	entryHeld := &heldRows{rows: entryInst.heldRows}
	bodies := newJobBodies(ref, csvPath)
	rng := textutil.NewRNG(seed + 100)

	lap("clerk daemon")
	// Warm-up, unmeasured: the fix writer's copy-on-write garbage takes
	// a few collection cycles to reach its steady heap. The clerk writes
	// nothing, so the regions built at start-up stay.
	wf := runFixes(d, ref, fixHeld, warmWindow, rng)
	all.add(wf.t)
	all.add(wf.w.t)
	all.add(runJobPair(d, ref, bodies).t)
	all.add(runEntry(clerkD, entryInst, nil, clerkN/4, rng).t)

	var (
		fixP50, fixRate, writeP50  []float64
		inline, file, jobRate      []float64
		sessP50, sessRate, refresh []float64
		fixLat, writeLat, sessLat  samples
		writeLate                  samples
		asserted, sessions         int
	)
	lap("warm-up")
	for r := range rounds {
		host := hostProbe()
		fx := runFixes(d, ref, fixHeld, fixDur, rng)
		var jb []jobResult
		for range jobPairs {
			jb = append(jb, runJobPair(d, ref, bodies))
		}
		en := runEntry(clerkD, entryInst, entryHeld, clerkN, rng)
		for _, t := range []tally{fx.t, fx.w.t, en.t, en.w.t} {
			all.add(t)
		}
		for _, j := range jb {
			all.add(j.t)
			inline = append(inline, j.inline.Seconds())
			file = append(file, j.file.Seconds())
			jobRate = append(jobRate, float64(2*len(ref.jobTuples))/(j.inline+j.file).Seconds())
		}
		w := fx.w
		if workload == "entry" {
			w = en.w
		}
		fixP50 = append(fixP50, fx.lat.ms())
		fixRate = append(fixRate, float64(len(fx.lat))/fx.elapsed.Seconds())
		writeP50 = append(writeP50, w.lat.ms())
		sessP50 = append(sessP50, en.sess.ms())
		sessRate = append(sessRate, en.rate)
		refresh = append(refresh, en.refresh.Seconds())
		fixLat = append(fixLat, fx.lat...)
		writeLat = append(writeLat, w.lat...)
		writeLate = append(writeLate, w.late...)
		sessLat = append(sessLat, en.sess...)
		asserted += en.asserted
		sessions += en.sessions
		fmt.Fprintf(os.Stderr, "round %d: host %.2f ms; fix p50 %.3f ms %.0f/s; write p50 %.3f ms (%d); jobs %.3f s + %.3f s; sessions p50 %.3f ms %.0f/s; refresh %.3f s\n",
			r, host, fixP50[r], fixRate[r], writeP50[r], len(w.lat), inline[len(inline)-1], file[len(file)-1], sessP50[r], sessRate[r], refresh[r])
	}
	// rss_peak_mb is read after the last round, so it covers what every
	// family made the primary daemon hold.
	lap("rounds")
	rss, err := d.rssPeakMB()
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{
		"setup_s":                {median(setups), "s"},
		"rss_peak_mb":            {rss, "MB"},
		"fix_p50_ms":             {median(fixP50), "ms"},
		"session_p50_ms":         {median(sessP50), "ms"},
		"user_attrs_per_session": {float64(asserted) / float64(max(sessions, 1)), "count"},
	}
	// The figures below are printed but not reported: see README.md.
	fmt.Fprintf(os.Stderr, "setups %.3f s; %d fixes (p999 %.3f ms, fix_per_s %.0f); %d writes (write_p50_ms %.3f, p99 %.3f ms; generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms); job_inline_s_p50 %.3f, job_file_s_p50 %.3f, job_tuples_per_s %.0f; %d sessions (p999 %.3f ms, sessions_per_s %.0f); refresh_s_p50 %.3f\n",
		setups, len(fixLat), fixLat.quantile(0.999), median(fixRate), len(writeLat), median(writeP50), writeLat.quantile(0.99), writeLate.ms(), writeLate.quantile(0.99), writeLate.quantile(1),
		median(inline), median(file), median(jobRate), len(sessLat), sessLat.quantile(0.999), median(sessRate), median(refresh))
	for _, r := range all.reasons {
		fmt.Fprintln(os.Stderr, "failure:", r)
	}
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// hostProbe times a fixed single-threaded integer loop, in
// milliseconds. It is printed beside each round on standard error: the
// host the benchmark shares can run at half speed for minutes, and the
// probe shows when a round's figures moved with a slow core (not with
// memory or scheduling contention, which it does not exercise).
func hostProbe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for range 1 << 22 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

var probeSink uint64

// prepare builds an instance, its reference answers (from the system
// that saved it) and its CSV job input.
func prepare(instRoot, inputRoot string, spec instanceSpec, seed uint64) (*instance, *reference, string, error) {
	inst, err := buildInstance(instRoot, spec, seed)
	if err != nil {
		return nil, nil, "", err
	}
	fmt.Fprintln(os.Stderr, inst.describe())
	ref, err := buildReference(inst.sys, inst, fixPool, jobTuples)
	inst.sys = nil
	if err != nil {
		return nil, nil, "", err
	}
	csvPath, err := inst.writeJobCSV(inputRoot, jobTuples)
	return inst, ref, csvPath, err
}

// writerRows is how many rows the point-fix writer posts in dur.
func writerRows(dur time.Duration) int { return int(math.Ceil(writeRate * dur.Seconds())) }
