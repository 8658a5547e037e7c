// Package experiments implements the reproduction drivers for every
// table/figure of the paper's demonstration (E1–E3) and the
// scalability/accuracy experiment families its modules inherit from
// the companion paper [7] (E4–E7). DESIGN.md carries the experiment
// index; EXPERIMENTS.md records paper-reported vs measured values.
// Both cmd/cerfixbench and the root testing.B benchmarks call into
// this package so the numbers come from one implementation.
package experiments

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cerfix"
	"cerfix/internal/audit"
	"cerfix/internal/cfd"
	"cerfix/internal/core"
	"cerfix/internal/dataset"
	"cerfix/internal/jobs"
	"cerfix/internal/master"
	"cerfix/internal/metrics"
	"cerfix/internal/monitor"
	"cerfix/internal/oracle"
	"cerfix/internal/pipeline"
	"cerfix/internal/region"
	"cerfix/internal/rule"
	"cerfix/internal/schema"
	"cerfix/internal/storage"
	"cerfix/internal/value"
)

// DemoEngine wires the paper's Fig. 2 configuration (3 master tuples,
// rules φ1–φ9).
func DemoEngine() (*core.Engine, error) {
	st := master.New(dataset.PersonSchema())
	for _, row := range dataset.DemoMasterRows() {
		if _, err := st.InsertValues(row...); err != nil {
			return nil, err
		}
	}
	return core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), st)
}

// --- E1: Fig. 2 — rule management & consistency -------------------------

// E1Result reports the consistency analysis of the demo rule set.
type E1Result struct {
	// Consistent is the analysis verdict (paper: the nine rules pass).
	Consistent bool
	// Errors and Warnings count issues by severity.
	Errors, Warnings int
	// ProbesRun counts Church–Rosser probe chases.
	ProbesRun int
	// Rules is the rule count analyzed.
	Rules int
	// Elapsed is the analysis wall time.
	Elapsed time.Duration
}

// RunE1 executes experiment E1.
func RunE1() (*E1Result, error) {
	eng, err := DemoEngine()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep := eng.CheckConsistency(nil)
	return &E1Result{
		Consistent: rep.Consistent(),
		Errors:     len(rep.Errors()),
		Warnings:   len(rep.Warnings()),
		ProbesRun:  rep.ProbesRun,
		Rules:      eng.Rules().Len(),
		Elapsed:    time.Since(start),
	}, nil
}

// --- E2: Fig. 3 — monitor interaction rounds ------------------------------

// E2Round records one interaction round of the walkthrough.
type E2Round struct {
	// Validated lists the attributes the user asserted this round.
	Validated []string
	// Fixed lists attributes CerFix validated in response (with
	// rewrites marked "attr:old->new").
	Fixed []string
	// NextSuggestion is what CerFix asks for next (empty when done).
	NextSuggestion []string
}

// E2Result reports the Fig. 3 walkthrough.
type E2Result struct {
	Rounds  []E2Round
	Certain bool
	// MatchesGroundTruth reports the final tuple equals the entity.
	MatchesGroundTruth bool
}

// RunE2 reenacts the Fig. 3 walkthrough: the user first validates
// their own choice {AC, phn, type, item}, then follows suggestions.
func RunE2() (*E2Result, error) {
	eng, err := DemoEngine()
	if err != nil {
		return nil, err
	}
	mon := monitor.New(eng, nil)
	sess, err := mon.NewSession(dataset.DemoInputFig3())
	if err != nil {
		return nil, err
	}
	truth := dataset.DemoGroundTruthFig3()
	out := &E2Result{}
	asserts := []string{"AC", "phn", "type", "item"} // the Fig. 3(a) user choice
	for round := 0; !sess.Done() && round < 10; round++ {
		if round > 0 {
			asserts = sess.Suggestion()
		}
		m := make(map[string]string, len(asserts))
		for _, a := range asserts {
			m[a] = string(truth.Get(a))
		}
		res, err := sess.Validate(m)
		if err != nil {
			return nil, err
		}
		r := E2Round{Validated: asserts}
		for _, c := range res.Changes {
			if c.IsRewrite() {
				r.Fixed = append(r.Fixed, fmt.Sprintf("%s:%s->%s", c.Attr, c.Old, c.New))
			} else {
				r.Fixed = append(r.Fixed, c.Attr)
			}
		}
		r.NextSuggestion = sess.Suggestion()
		out.Rounds = append(out.Rounds, r)
	}
	out.Certain = sess.Certain()
	out.MatchesGroundTruth = sess.Tuple.Equal(truth)
	return out, nil
}

// --- E3: Fig. 4 — auditing statistics --------------------------------------

// E3Result reports the auditing statistics over a fixed stream.
type E3Result struct {
	// Tuples is the stream length.
	Tuples int
	// MobileShare is the workload's mobile/home mix.
	MobileShare float64
	// PerAttr is the Fig. 4 per-attribute user%/auto% table.
	PerAttr []audit.AttrStats
	// Overall aggregates all attributes (the paper's "20% user / 80%
	// auto" claim; see EXPERIMENTS.md for the measured split and the
	// discussion of the gap).
	Overall audit.AttrStats
	// RewriteShare is the fraction of auto-validated cells whose value
	// was actually rewritten (vs confirmed).
	RewriteShare float64
	// AllCertain reports whether every session reached a certain fix.
	AllCertain bool
}

// RunE3 cleans a stream of nInputs dirty customer tuples (noise rate
// noiseRate, mobile/home mix mobileShare) with the oracle following
// suggestions, and returns the audit statistics.
func RunE3(nEntities, nInputs int, noiseRate, mobileShare float64, seed uint64) (*E3Result, error) {
	g := dataset.NewCustomerGen(seed)
	g.MobileShare = mobileShare
	w, err := g.GenerateWorkload(nEntities, nInputs, noiseRate, nil)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
	if err != nil {
		return nil, err
	}
	mon := monitor.New(eng, nil)
	allCertain := true
	for i := range w.Dirty {
		sess, err := mon.NewSession(w.Dirty[i])
		if err != nil {
			return nil, err
		}
		u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
		if _, err := u.RunSession(sess); err != nil {
			return nil, err
		}
		if !sess.Certain() {
			allCertain = false
		}
	}
	overall := mon.Log().Overall()
	res := &E3Result{
		Tuples:      nInputs,
		MobileShare: mobileShare,
		PerAttr:     mon.Log().StatsPerAttr(),
		Overall:     overall,
		AllCertain:  allCertain,
	}
	if auto := overall.AutoFixed + overall.AutoConfirmed; auto > 0 {
		res.RewriteShare = float64(overall.AutoFixed) / float64(auto)
	}
	return res, nil
}

// RunE3Hosp is E3 on the HOSP workload, whose richer rule coverage
// (the minimal region covers 3 of 11 attributes) approaches the
// paper's headline 20/80 user/auto split.
func RunE3Hosp(nProviders, nInputs int, noiseRate float64, seed uint64) (*E3Result, error) {
	g := dataset.NewHospGen(seed)
	w, err := g.GenerateWorkload(nProviders, nInputs, noiseRate)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dataset.HospSchema(), dataset.HospRules(), w.Store)
	if err != nil {
		return nil, err
	}
	mon := monitor.New(eng, nil)
	allCertain := true
	for i := range w.Dirty {
		sess, err := mon.NewSession(w.Dirty[i])
		if err != nil {
			return nil, err
		}
		u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
		if _, err := u.RunSession(sess); err != nil {
			return nil, err
		}
		if !sess.Certain() {
			allCertain = false
		}
	}
	overall := mon.Log().Overall()
	res := &E3Result{
		Tuples:     nInputs,
		PerAttr:    mon.Log().StatsPerAttr(),
		Overall:    overall,
		AllCertain: allCertain,
	}
	if auto := overall.AutoFixed + overall.AutoConfirmed; auto > 0 {
		res.RewriteShare = float64(overall.AutoFixed) / float64(auto)
	}
	return res, nil
}

// RunE3Dblp is E3 on the DBLP citation workload. The minimal region is
// {key} alone — the DBLP key determines title/authors/venue/year and
// venue then determines vfull — so the structural floor is 1/6 ≈ 17%
// user-validated cells, and the measured split (~19/81) reproduces the
// paper's headline "20% user / 80% CerFix" claim.
func RunE3Dblp(nPubs, nInputs int, noiseRate float64, seed uint64) (*E3Result, error) {
	g := dataset.NewDblpGen(seed)
	w, err := g.GenerateWorkload(nPubs, nInputs, noiseRate)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dataset.DblpSchema(), dataset.DblpRules(), w.Store)
	if err != nil {
		return nil, err
	}
	mon := monitor.New(eng, nil)
	allCertain := true
	for i := range w.Dirty {
		sess, err := mon.NewSession(w.Dirty[i])
		if err != nil {
			return nil, err
		}
		u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
		if _, err := u.RunSession(sess); err != nil {
			return nil, err
		}
		if !sess.Certain() {
			allCertain = false
		}
	}
	overall := mon.Log().Overall()
	res := &E3Result{
		Tuples:     nInputs,
		PerAttr:    mon.Log().StatsPerAttr(),
		Overall:    overall,
		AllCertain: allCertain,
	}
	if auto := overall.AutoFixed + overall.AutoConfirmed; auto > 0 {
		res.RewriteShare = float64(overall.AutoFixed) / float64(auto)
	}
	return res, nil
}

// --- E4: accuracy vs noise — certain fixes vs CFD heuristic repair ---------

// E4Row is one noise-rate measurement.
type E4Row struct {
	NoiseRate float64
	// CerFix and Baseline are the cell-level repair qualities.
	CerFix, Baseline metrics.RepairQuality
	// BaselineBroken counts correct cells the heuristic overwrote
	// (duplicated from Baseline.BrokenCells for easy printing).
	BaselineBroken int
}

// E4CFDsDSL is the constant-CFD knowledge base the baseline uses: the
// AC→city pairs of the generator's city table (Example 1's ψ rules,
// extended to every city).
const E4CFDsDSL = `
c020: AC = "020" -> city = "Ldn"
c131: AC = "131" -> city = "Edi"
c161: AC = "161" -> city = "Mnc"
c141: AC = "141" -> city = "Gla"
c121: AC = "121" -> city = "Brm"
c113: AC = "113" -> city = "Lds"
c114: AC = "114" -> city = "Shf"
c151: AC = "151" -> city = "Lvp"
c191: AC = "191" -> city = "Ncl"
c117: AC = "117" -> city = "Brs"
c029: AC = "029" -> city = "Cdf"
c115: AC = "115" -> city = "Ntt"
`

// RunE4 sweeps noise rates, cleaning each workload twice: with CerFix
// (oracle follows suggestions; only rule-made rewrites count as the
// system's changes) and with the CFD heuristic baseline.
func RunE4(noiseRates []float64, nEntities, nInputs int, seed uint64) ([]E4Row, error) {
	cfds, err := cfd.ParseSet(E4CFDsDSL)
	if err != nil {
		return nil, err
	}
	var rows []E4Row
	for _, rate := range noiseRates {
		g := dataset.NewCustomerGen(seed)
		w, err := g.GenerateWorkload(nEntities, nInputs, rate, nil)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
		if err != nil {
			return nil, err
		}
		mon := monitor.New(eng, nil)
		row := E4Row{NoiseRate: rate}
		rep := cfd.NewRepairer(cfds)
		for i := range w.Dirty {
			// CerFix path. The user-validated cells are excluded from
			// the scored repair (they are human input, not system
			// output): we score dirty-with-user-assertions vs final.
			sess, err := mon.NewSession(w.Dirty[i])
			if err != nil {
				return nil, err
			}
			u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
			if _, err := u.RunSession(sess); err != nil {
				return nil, err
			}
			base := w.Dirty[i].Clone()
			for _, rec := range mon.Log().TupleHistory(sess.ID) {
				if rec.Source == core.SourceUser {
					base.Set(rec.Attr, rec.New)
				}
			}
			if err := row.CerFix.Add(base, sess.Tuple, w.Truth[i]); err != nil {
				return nil, err
			}
			// Baseline path: heuristic CFD repair on the raw dirty
			// tuple.
			fixed, _ := rep.RepairTuple(w.Dirty[i])
			if err := row.Baseline.Add(w.Dirty[i], fixed, w.Truth[i]); err != nil {
				return nil, err
			}
		}
		row.BaselineBroken = row.Baseline.BrokenCells
		rows = append(rows, row)
	}
	return rows, nil
}

// E4HospFDsDSL is the variable-CFD (FD) knowledge base for the HOSP
// table-level baseline: the true functional structure of the data.
const E4HospFDsDSL = `
f1: prov -> hospital, addr, county
f2: zip -> city, state
f3: phone -> zip
f4: mcode -> mname, condition
`

// RunE4Hosp compares table-level cleaning on HOSP: the heuristic
// repairer aligns each FD group on its plurality value (no master, no
// users), while CerFix runs oracle-driven sessions per tuple. The
// baseline can only be right when the plurality happens to be the
// truth — with noisy groups and singleton keys it both misses errors
// and overwrites correct cells.
func RunE4Hosp(noiseRates []float64, nProviders, nInputs int, seed uint64) ([]E4Row, error) {
	fds, err := cfd.ParseSet(E4HospFDsDSL)
	if err != nil {
		return nil, err
	}
	var rows []E4Row
	for _, rate := range noiseRates {
		g := dataset.NewHospGen(seed)
		w, err := g.GenerateWorkload(nProviders, nInputs, rate)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.HospSchema(), dataset.HospRules(), w.Store)
		if err != nil {
			return nil, err
		}
		mon := monitor.New(eng, nil)
		row := E4Row{NoiseRate: rate}
		// Baseline: repair the whole dirty table at once.
		tbl := storage.NewTable(dataset.HospSchema())
		var ids []int64
		for _, d := range w.Dirty {
			id, err := tbl.Insert(d)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		cfd.NewRepairer(fds).RepairTable(tbl)
		for i, id := range ids {
			fixed, _ := tbl.Get(id)
			if err := row.Baseline.Add(w.Dirty[i], fixed, w.Truth[i]); err != nil {
				return nil, err
			}
		}
		// CerFix: per-tuple sessions.
		for i := range w.Dirty {
			sess, err := mon.NewSession(w.Dirty[i])
			if err != nil {
				return nil, err
			}
			u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
			if _, err := u.RunSession(sess); err != nil {
				return nil, err
			}
			base := w.Dirty[i].Clone()
			for _, rec := range mon.Log().TupleHistory(sess.ID) {
				if rec.Source == core.SourceUser {
					base.Set(rec.Attr, rec.New)
				}
			}
			if err := row.CerFix.Add(base, sess.Tuple, w.Truth[i]); err != nil {
				return nil, err
			}
		}
		row.BaselineBroken = row.Baseline.BrokenCells
		rows = append(rows, row)
	}
	return rows, nil
}

// --- E5: scalability ---------------------------------------------------------

// E5MasterRow is one master-size measurement across the three lookup
// access paths (the master manager's ablation): the precomputed
// unique-RHS answer per key (O(1) per probe), the walk of the key's
// group (O(|key group|) — non-key attributes like the demo's area code
// grow linearly with master size), and full scans (O(|master|)).
type E5MasterRow struct {
	MasterSize int
	// RuleIdxNsPerFix, PlainIdxNsPerFix and ScanNsPerFix are wall times
	// per non-interactive certain-fix pass, each the best of e5Passes
	// interleaved passes over the inputs.
	RuleIdxNsPerFix, PlainIdxNsPerFix, ScanNsPerFix float64
	// ScanMeasured reports whether the scan ablation ran at this size
	// (it is skipped at large sizes to keep runs bounded).
	ScanMeasured bool
}

// e5Passes is RunE5Master's best-of-N pass count per access path.
const e5Passes = 5

// RunE5Master measures fix latency vs master size across access paths.
// The paths are timed in interleaved passes, best of e5Passes each, as
// e13 does: the minimum is robust to GC pauses, and interleaving keeps
// machine drift from loading one path of the comparison.
func RunE5Master(sizes []int, nInputs int, scanLimit int, seed uint64) ([]E5MasterRow, error) {
	var rows []E5MasterRow
	for _, size := range sizes {
		g := dataset.NewCustomerGen(seed)
		w, err := g.GenerateWorkload(size, nInputs, 0.3, nil)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
		if err != nil {
			return nil, err
		}
		seedSet := schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
		row := E5MasterRow{MasterSize: size, ScanMeasured: size <= scanLimit}
		modes := []master.LookupMode{master.ModeRuleIndex, master.ModePlainIndex, master.ModeScan}
		best := []*float64{&row.RuleIdxNsPerFix, &row.PlainIdxNsPerFix, &row.ScanNsPerFix}
		if !row.ScanMeasured {
			modes = modes[:2]
		}
		for p := 0; p < e5Passes; p++ {
			for i, mode := range modes {
				w.Store.SetMode(mode)
				runtime.GC()
				if ns := timeFixes(eng, w.Dirty, seedSet); p == 0 || ns < *best[i] {
					*best[i] = ns
				}
			}
		}
		w.Store.SetMode(master.ModeRuleIndex)
		rows = append(rows, row)
	}
	return rows, nil
}

func timeFixes(eng *core.Engine, inputs []*schema.Tuple, seed schema.AttrSet) float64 {
	start := time.Now()
	for _, t := range inputs {
		eng.Chase(t, seed)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(inputs))
}

// E5RulesRow is one rule-count measurement.
type E5RulesRow struct {
	Rules       int
	NsPerFix    float64
	MasterSize  int
	InputTuples int
}

// RunE5Rules measures fix latency vs rule-set size: the demo rules are
// replicated with fresh IDs (semantically idempotent copies), so the
// chase scans proportionally more rules per round.
func RunE5Rules(multipliers []int, masterSize, nInputs int, seed uint64) ([]E5RulesRow, error) {
	var rows []E5RulesRow
	for _, mult := range multipliers {
		g := dataset.NewCustomerGen(seed)
		w, err := g.GenerateWorkload(masterSize, nInputs, 0.3, nil)
		if err != nil {
			return nil, err
		}
		rs, err := replicateRules(dataset.DemoRules(), mult)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), rs, w.Store)
		if err != nil {
			return nil, err
		}
		seedSet := schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
		rows = append(rows, E5RulesRow{
			Rules:       rs.Len(),
			NsPerFix:    timeFixes(eng, w.Dirty, seedSet),
			MasterSize:  masterSize,
			InputTuples: nInputs,
		})
	}
	return rows, nil
}

func replicateRules(base *rule.Set, mult int) (*rule.Set, error) {
	out, err := rule.NewSet()
	if err != nil {
		return nil, err
	}
	for copyIdx := 0; copyIdx < mult; copyIdx++ {
		for _, r := range base.Rules() {
			cp := r.Clone()
			if copyIdx > 0 {
				cp.ID = fmt.Sprintf("%s_c%d", r.ID, copyIdx)
			}
			if err := out.Add(cp); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// --- E6: user effort -----------------------------------------------------------

// E6Row is one noise-rate effort measurement.
type E6Row struct {
	NoiseRate float64
	// AvgValidated is mean user-validated attributes per tuple.
	AvgValidated float64
	// AvgRounds is mean interaction rounds per tuple.
	AvgRounds float64
	// UserFraction is user-validated cells over all cells.
	UserFraction float64
	// AutoRewriteShare is the fraction of auto-validated cells that
	// were rewrites (grows with noise; confirmations shrink).
	AutoRewriteShare float64
}

// RunE6 sweeps noise rates and measures user effort with the
// suggestion-following oracle.
func RunE6(noiseRates []float64, nEntities, nInputs int, seed uint64) ([]E6Row, error) {
	var rows []E6Row
	for _, rate := range noiseRates {
		g := dataset.NewCustomerGen(seed)
		w, err := g.GenerateWorkload(nEntities, nInputs, rate, nil)
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
		if err != nil {
			return nil, err
		}
		mon := monitor.New(eng, nil)
		var eff metrics.Effort
		for i := range w.Dirty {
			sess, err := mon.NewSession(w.Dirty[i])
			if err != nil {
				return nil, err
			}
			u := oracle.NewUser(w.Truth[i], oracle.FollowSuggestions)
			rounds, err := u.RunSession(sess)
			if err != nil {
				return nil, err
			}
			sum := sess.Summary()
			eff.Observe(sum.UserValidated, rounds, dataset.CustSchema().Len())
		}
		overall := mon.Log().Overall()
		row := E6Row{
			NoiseRate:    rate,
			AvgValidated: eff.AvgValidated(),
			AvgRounds:    eff.AvgRounds(),
			UserFraction: eff.ValidatedFraction(),
		}
		if auto := overall.AutoFixed + overall.AutoConfirmed; auto > 0 {
			row.AutoRewriteShare = float64(overall.AutoFixed) / float64(auto)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- E8: batch-repair pipeline scaling ---------------------------------------

// E8Row is one (access path, worker count) throughput measurement of
// the sharded batch-repair pipeline.
type E8Row struct {
	// Mode is the master lookup access path the run used.
	Mode master.LookupMode
	// Workers is the pipeline worker count.
	Workers int
	// NsPerFix is mean wall time per certain-fix pass.
	NsPerFix float64
	// TuplesPerSec is the batch throughput.
	TuplesPerSec float64
	// Speedup is throughput relative to the same mode's 1-worker run.
	Speedup float64
}

// RunE8 measures batch-repair throughput vs worker count per lookup
// mode: the same generated workload is repaired through the pipeline
// at each worker count, and output equality with the sequential path
// is asserted on the fly (a throughput number for a wrong answer
// would be worthless).
func RunE8(workerCounts []int, nEntities, nInputs int, seed uint64) ([]E8Row, error) {
	g := dataset.NewCustomerGen(seed)
	w, err := g.GenerateWorkload(nEntities, nInputs, 0.3, nil)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
	if err != nil {
		return nil, err
	}
	seedSet := schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
	var rows []E8Row
	for _, mode := range []master.LookupMode{master.ModeRuleIndex, master.ModePlainIndex} {
		w.Store.SetMode(mode)
		// Sequential reference for the equality check.
		want := make([]*schema.Tuple, len(w.Dirty))
		for i, tu := range w.Dirty {
			want[i] = eng.Chase(tu, seedSet).Tuple
		}
		var base float64
		for _, n := range workerCounts {
			mismatch := 0
			check := pipeline.SinkFunc(func(r *pipeline.Result) error {
				if !r.Fixed.Equal(want[r.Seq]) {
					mismatch++
				}
				return nil
			})
			start := time.Now()
			stats, err := pipeline.Run(context.Background(), eng, seedSet, pipeline.NewSliceSource(w.Dirty), check, &pipeline.Options{Workers: n})
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if mismatch > 0 {
				return nil, fmt.Errorf("e8: %d tuples differ from sequential path at %d workers (%s)", mismatch, n, mode)
			}
			if stats.Tuples != len(w.Dirty) {
				return nil, fmt.Errorf("e8: processed %d of %d tuples", stats.Tuples, len(w.Dirty))
			}
			row := E8Row{
				Mode:         mode,
				Workers:      n,
				NsPerFix:     float64(elapsed.Nanoseconds()) / float64(len(w.Dirty)),
				TuplesPerSec: float64(len(w.Dirty)) / elapsed.Seconds(),
			}
			if base == 0 {
				base = row.TuplesPerSec
			}
			row.Speedup = row.TuplesPerSec / base
			rows = append(rows, row)
		}
	}
	w.Store.SetMode(master.ModeRuleIndex)
	return rows, nil
}

// --- E7: region finder cost & quality ---------------------------------------

// E7Row is one configuration measurement.
type E7Row struct {
	// Attrs is the input schema width (2m for the pairs(m) config).
	Attrs int
	// ExactNs and GreedyNs are TopK wall times.
	ExactNs, GreedyNs int64
	// ExactBestSize and GreedyBestSize are the best region sizes.
	ExactBestSize, GreedyBestSize int
	// ExactRegions counts regions found by the exact search.
	ExactRegions int
}

// RunE7 measures the region finder on the pairs(m) family: 2m
// attributes s_i/t_i with rules s_i→t_i and t_i→s_i. Every minimal
// region picks one attribute per pair (size m), so the exact
// subset-lattice search must enumerate up to C(2m, m) candidates while
// greedy stays polynomial.
func RunE7(pairCounts []int, seed uint64) ([]E7Row, error) {
	var rows []E7Row
	for _, m := range pairCounts {
		eng, err := PairsEngine(m, seed)
		if err != nil {
			return nil, err
		}
		finder := region.NewFinder(eng)
		start := time.Now()
		exact := finder.TopK(&region.Options{MaxRegionsPerCell: 2})
		exactNs := time.Since(start).Nanoseconds()
		start = time.Now()
		greedy := finder.TopK(&region.Options{Greedy: true})
		greedyNs := time.Since(start).Nanoseconds()
		row := E7Row{Attrs: 2 * m, ExactNs: exactNs, GreedyNs: greedyNs, ExactRegions: len(exact)}
		if len(exact) > 0 {
			row.ExactBestSize = exact[0].Size()
		}
		if len(greedy) > 0 {
			row.GreedyBestSize = greedy[0].Size()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PairsEngine builds the pairs(m) configuration with a small master
// relation providing coverage (exported for the root benchmarks).
func PairsEngine(m int, seed uint64) (*core.Engine, error) {
	attrs := make([]schema.Attribute, 0, 2*m)
	for i := 0; i < m; i++ {
		attrs = append(attrs, schema.Str(fmt.Sprintf("s%d", i)), schema.Str(fmt.Sprintf("t%d", i)))
	}
	input, err := schema.New("PAIRS", attrs...)
	if err != nil {
		return nil, err
	}
	rs, err := rule.NewSet()
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		fwd, err := rule.Parse(fmt.Sprintf("f%d: match s%d~s%d set t%d := t%d", i, i, i, i, i))
		if err != nil {
			return nil, err
		}
		bwd, err := rule.Parse(fmt.Sprintf("b%d: match t%d~t%d set s%d := s%d", i, i, i, i, i))
		if err != nil {
			return nil, err
		}
		if err := rs.Add(fwd); err != nil {
			return nil, err
		}
		if err := rs.Add(bwd); err != nil {
			return nil, err
		}
	}
	st := master.New(input)
	// A handful of master rows; values unique per row and column.
	for r := 0; r < 4; r++ {
		vals := make([]value.V, 2*m)
		for i := range vals {
			vals[i] = value.V(fmt.Sprintf("v%d-%d", r, i))
		}
		if _, err := st.InsertValues(vals...); err != nil {
			return nil, err
		}
	}
	return core.NewEngine(input, rs, st)
}

// --- E9: snapshot cost — deep clone vs copy-on-write -------------------

// E9Row is one master-size measurement comparing the legacy deep-clone
// snapshot path (core.Engine.SnapshotDeep) with the O(1) copy-on-write
// path (core.Engine.Snapshot). The acceptance claim of the COW rework
// is visible directly in the numbers: CowSnapshotNs stays flat as the
// master grows while DeepCloneNs scales with it, and the steady-state
// fix latencies agree — the cheap snapshot costs readers nothing.
type E9Row struct {
	// MasterSize is the number of master tuples.
	MasterSize int `json:"master_size"`
	// DeepCloneNs is the latency of one deep-clone snapshot (best of
	// several captures).
	DeepCloneNs int64 `json:"deep_clone_snapshot_ns"`
	// CowSnapshotNs is the latency of one copy-on-write snapshot
	// (best of several captures, each taken after a live write so the
	// capture is never a trivial re-capture).
	CowSnapshotNs int64 `json:"cow_snapshot_ns"`
	// DeepFixNs and CowFixNs are steady-state certain-fix latencies
	// (ns per fix) chasing the same inputs against each snapshot kind.
	DeepFixNs float64 `json:"deep_fix_ns_per_fix"`
	CowFixNs  float64 `json:"cow_fix_ns_per_fix"`
	// CowWriterNs is the mean live-store insert latency while a
	// snapshot is outstanding — the copy-on-write cost writers absorb
	// for the shards they touch.
	CowWriterNs float64 `json:"cow_writer_ns_per_insert"`
}

// RunE9 measures snapshot latency and steady-state fix throughput vs
// master size for both snapshot paths, asserting on the fly that the
// two produce identical fixes (a latency number for a wrong answer
// would be worthless).
func RunE9(sizes []int, probes int, seed uint64) ([]E9Row, error) {
	const (
		snapReps     = 7
		writerProbes = 1000
	)
	seedSet := schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
	var rows []E9Row
	for _, n := range sizes {
		g := dataset.NewCustomerGen(seed)
		// Extra entities feed the write probes without colliding with
		// the n loaded rows (zips embed the entity serial).
		entities := g.GenerateEntities(n + snapReps + writerProbes)
		st, err := dataset.MasterStore(entities[:n])
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), st)
		if err != nil {
			return nil, err
		}
		inputs := make([]*schema.Tuple, probes)
		for i := range inputs {
			inputs[i] = g.CleanInput(entities[i%n])
		}
		extra := entities[n:]

		// Snapshot latencies. Each COW capture follows a live insert,
		// so it can never piggyback on an identical prior capture.
		row := E9Row{MasterSize: n}
		for i := 0; i < snapReps; i++ {
			start := time.Now()
			deep := eng.SnapshotDeep()
			el := time.Since(start).Nanoseconds()
			if row.DeepCloneNs == 0 || el < row.DeepCloneNs {
				row.DeepCloneNs = el
			}
			if deep.Master().Len() != st.Len() {
				return nil, fmt.Errorf("e9: deep clone lost rows")
			}
		}
		var cow *core.Engine
		for i := 0; i < snapReps; i++ {
			if _, err := st.InsertValues(extra[i].Master...); err != nil {
				return nil, err
			}
			start := time.Now()
			cow = eng.Snapshot()
			el := time.Since(start).Nanoseconds()
			if row.CowSnapshotNs == 0 || el < row.CowSnapshotNs {
				row.CowSnapshotNs = el
			}
		}
		deep := eng.SnapshotDeep() // same generation as cow

		// Parity: both snapshot kinds fix identically.
		for _, tu := range inputs[:min(len(inputs), 50)] {
			a := cow.Chase(tu, seedSet).Tuple
			b := deep.Chase(tu, seedSet).Tuple
			if !a.Equal(b) {
				return nil, fmt.Errorf("e9: COW and deep-clone snapshots disagree at size %d", n)
			}
		}

		// Steady-state fix latency against each snapshot kind. The GC
		// barrier keeps garbage from the discarded deep clones above
		// from being collected inside a timed section.
		runtime.GC()
		start := time.Now()
		ch := cow.NewChaser()
		for _, tu := range inputs {
			ch.Chase(tu, seedSet)
		}
		row.CowFixNs = float64(time.Since(start).Nanoseconds()) / float64(len(inputs))
		runtime.GC()
		start = time.Now()
		ch = deep.NewChaser()
		for _, tu := range inputs {
			ch.Chase(tu, seedSet)
		}
		row.DeepFixNs = float64(time.Since(start).Nanoseconds()) / float64(len(inputs))

		// Writer-side COW cost: live inserts while cow is outstanding.
		runtime.GC()
		start = time.Now()
		for i := snapReps; i < snapReps+writerProbes; i++ {
			if _, err := st.InsertValues(extra[i].Master...); err != nil {
				return nil, err
			}
		}
		row.CowWriterNs = float64(time.Since(start).Nanoseconds()) / float64(writerProbes)
		rows = append(rows, row)
	}
	return rows, nil
}

// --- E10: compiled chase program vs legacy loop ------------------------

// E10Row is one (rule count × master size) cell comparing the compiled
// agenda-scheduled chase (core.Chaser.ChaseScratch — the zero-alloc
// executor for consume-before-next-call loops; pipeline workers use
// Chaser.Chase, which allocates the results their resequencing window
// retains but shares every other compiled-path win) with the legacy
// round-robin loop (core.Engine.ChaseLegacy).
// The acceptance claims of the compiled-program rework read directly
// off the row: Speedup grows with the rule count (the agenda touches
// only ready rules where the legacy loop rescans the whole set every
// round), stays ≥ ~1 at one rule (the compile adds no per-tuple cost),
// and CompiledAllocsPerFix is 0 in steady state while the legacy loop
// pays per-call maps, slices and key strings.
type E10Row struct {
	// Rules is the rule-set size of this cell.
	Rules int `json:"rules"`
	// MasterSize is the number of master tuples.
	MasterSize int `json:"master_size"`
	// CompiledNsPerFix and LegacyNsPerFix are steady-state wall times
	// per chase (ns) over the same input tuples and validated seed.
	CompiledNsPerFix float64 `json:"compiled_ns_per_fix"`
	LegacyNsPerFix   float64 `json:"legacy_ns_per_fix"`
	// Speedup is LegacyNsPerFix / CompiledNsPerFix.
	Speedup float64 `json:"speedup"`
	// CompiledAllocsPerFix and LegacyAllocsPerFix are mean heap
	// allocations per chase (runtime mallocs delta / probes).
	CompiledAllocsPerFix float64 `json:"compiled_allocs_per_fix"`
	LegacyAllocsPerFix   float64 `json:"legacy_allocs_per_fix"`
}

// ruleSetOfSize builds a rule set with exactly n rules by cycling the
// demo rules with fresh IDs (clones are semantically idempotent, so
// extra copies add scan cost — the quantity under test — without
// changing any fix).
func ruleSetOfSize(n int) (*rule.Set, error) {
	base := dataset.DemoRules().Rules()
	out, err := rule.NewSet()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		cp := base[i%len(base)].Clone()
		if i >= len(base) {
			cp.ID = fmt.Sprintf("%s_c%d", cp.ID, i/len(base))
		}
		if err := out.Add(cp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// chaseResultsAgree deep-compares a compiled and a legacy chase result.
func chaseResultsAgree(a, b *core.ChaseResult) bool {
	if !a.Tuple.Equal(b.Tuple) || a.Validated != b.Validated ||
		a.Rounds != b.Rounds ||
		len(a.Changes) != len(b.Changes) || len(a.Conflicts) != len(b.Conflicts) {
		return false
	}
	for i := range a.Changes {
		if a.Changes[i] != b.Changes[i] {
			return false
		}
	}
	for i := range a.Conflicts {
		if a.Conflicts[i] != b.Conflicts[i] {
			return false
		}
	}
	return true
}

// mallocs reads the cumulative heap-allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// RunE10 sweeps rule counts × master sizes, measuring steady-state
// chase latency and allocations for the compiled program and the
// legacy loop, asserting on the fly that the two produce identical
// results (a latency number for a wrong answer would be worthless).
// Inputs are clean tuples with {zip, phn, type, item} pre-validated,
// so every chase does productive work (validating the remaining
// attributes against master) on the conflict-free happy path the
// zero-alloc contract covers.
func RunE10(ruleCounts, sizes []int, probes int, seed uint64) ([]E10Row, error) {
	seedSet := schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
	var rows []E10Row
	for _, size := range sizes {
		g := dataset.NewCustomerGen(seed)
		entities := g.GenerateEntities(size)
		st, err := dataset.MasterStore(entities)
		if err != nil {
			return nil, err
		}
		inputs := make([]*schema.Tuple, probes)
		for i := range inputs {
			inputs[i] = g.CleanInput(entities[i%size])
		}
		for _, nRules := range ruleCounts {
			rs, err := ruleSetOfSize(nRules)
			if err != nil {
				return nil, err
			}
			eng, err := core.NewEngine(dataset.CustSchema(), rs, st)
			if err != nil {
				return nil, err
			}
			ch := eng.NewChaser()
			// Parity gate + scratch warm-up: EVERY probe must agree
			// before either path is timed (the printed claim promises
			// full verification, not a sampled prefix).
			for _, tu := range inputs {
				if !chaseResultsAgree(ch.ChaseScratch(tu, seedSet), eng.ChaseLegacy(tu, seedSet)) {
					return nil, fmt.Errorf("e10: compiled and legacy chases disagree at %d rules, size %d", nRules, size)
				}
			}
			row := E10Row{Rules: nRules, MasterSize: size}

			runtime.GC()
			m0 := mallocs()
			start := time.Now()
			for _, tu := range inputs {
				ch.ChaseScratch(tu, seedSet)
			}
			row.CompiledNsPerFix = float64(time.Since(start).Nanoseconds()) / float64(len(inputs))
			row.CompiledAllocsPerFix = float64(mallocs()-m0) / float64(len(inputs))

			runtime.GC()
			m0 = mallocs()
			start = time.Now()
			for _, tu := range inputs {
				eng.ChaseLegacy(tu, seedSet)
			}
			row.LegacyNsPerFix = float64(time.Since(start).Nanoseconds()) / float64(len(inputs))
			row.LegacyAllocsPerFix = float64(mallocs()-m0) / float64(len(inputs))

			if row.CompiledNsPerFix > 0 {
				row.Speedup = row.LegacyNsPerFix / row.CompiledNsPerFix
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// --- E11: zero-alloc pipeline — throughput & allocs per tuple ----------

// E11Row is one (path × worker count) end-to-end pipeline measurement:
// source decode → sharded chase → ordered sink encode, through the
// recycled batch arenas. The acceptance claims of the zero-alloc
// pipeline rework read directly off the row: AllocsPerTuple collapses
// to a small constant (O(window) per run amortized over the input, vs
// the per-tuple boxing of the baseline), and TuplesPerSec scales with
// workers where cores allow.
type E11Row struct {
	// Path is the I/O shape: "slice", "csv" or "jsonl".
	Path string `json:"path"`
	// Workers is the pipeline worker count.
	Workers int `json:"workers"`
	// NsPerTuple is mean wall time per tuple, end to end.
	NsPerTuple float64 `json:"ns_per_tuple"`
	// TuplesPerSec is the end-to-end throughput.
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// AllocsPerTuple is mean heap allocations per tuple (runtime
	// mallocs delta / tuples), whole pipeline run included.
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
	// Speedup is TuplesPerSec relative to the same path's first
	// (1-worker) row.
	Speedup float64 `json:"speedup_vs_1w"`
}

// E11Baseline is the pre-recycling reference for one path: the PR 4
// steady state — per-tuple source decode into fresh tuples, an
// allocating chase result per tuple, encoding/json per record —
// measured sequentially. Its output bytes are also the parity oracle
// every pipeline run is gated against.
type E11Baseline struct {
	Path           string  `json:"path"`
	NsPerTuple     float64 `json:"ns_per_tuple"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
}

// e11VerifyWriter compares everything written against a want buffer
// without retaining or allocating — the in-flight parity gate of E11.
type e11VerifyWriter struct {
	want []byte
	off  int
	bad  bool
}

func (w *e11VerifyWriter) Write(p []byte) (int, error) {
	if w.off+len(p) > len(w.want) || !bytes.Equal(w.want[w.off:w.off+len(p)], p) {
		w.bad = true
	}
	w.off += len(p)
	return len(p), nil
}

func (w *e11VerifyWriter) ok() bool { return !w.bad && w.off == len(w.want) }

// e11JSONLRecord mirrors pipeline.JSONLSink's wire shape for the
// baseline encoder.
type e11JSONLRecord struct {
	Tuple     map[string]string `json:"tuple"`
	Done      bool              `json:"done"`
	Conflicts []string          `json:"conflicts,omitempty"`
	Rewrites  int               `json:"rewrites"`
}

// RunE11 measures end-to-end batch-repair throughput and allocations
// per tuple for the recycled pipeline across worker counts and I/O
// paths, against a sequential PR 4-style baseline whose output every
// run must reproduce byte for byte (a throughput number for different
// bytes would be worthless).
func RunE11(workerCounts []int, nEntities, nInputs int, seed uint64) ([]E11Row, []E11Baseline, error) {
	g := dataset.NewCustomerGen(seed)
	w, err := g.GenerateWorkload(nEntities, nInputs, 0.3, nil)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(dataset.CustSchema(), dataset.DemoRules(), w.Store)
	if err != nil {
		return nil, nil, err
	}
	sch := dataset.CustSchema()
	seedSet := schema.SetOfNames(sch, "zip", "phn", "type", "item")
	n := len(w.Dirty)

	// Materialize the streaming inputs once.
	var csvIn bytes.Buffer
	cw := csv.NewWriter(&csvIn)
	if err := cw.Write(sch.AttrNames()); err != nil {
		return nil, nil, err
	}
	for _, tu := range w.Dirty {
		if err := cw.Write(tu.Vals.Strings()); err != nil {
			return nil, nil, err
		}
	}
	cw.Flush()
	var jsonlIn bytes.Buffer
	jenc := json.NewEncoder(&jsonlIn)
	for _, tu := range w.Dirty {
		if err := jenc.Encode(tu.Map()); err != nil {
			return nil, nil, err
		}
	}

	// Baselines: sequential, per-tuple boxing, encoding/json — the
	// shape of the pre-recycling pipeline. Each also renders the
	// expected output bytes for its path's parity gate.
	want := map[string][]byte{}
	var baselines []E11Baseline
	runBaseline := func(path string, mk func(out io.Writer) (func() (*schema.Tuple, error), func(*core.ChaseResult) error)) error {
		var out bytes.Buffer
		next, emit := mk(&out)
		chaser := eng.AcquireChaser()
		defer chaser.Release()
		runtime.GC()
		m0 := mallocs()
		start := time.Now()
		count := 0
		for {
			tu, err := next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			res := chaser.Chase(tu, seedSet) // allocating result, as PR 4 workers did
			if err := emit(res); err != nil {
				return err
			}
			count++
		}
		elapsed := time.Since(start)
		allocs := mallocs() - m0
		if count != n {
			return fmt.Errorf("e11 baseline %s: %d of %d tuples", path, count, n)
		}
		want[path] = append([]byte(nil), out.Bytes()...)
		baselines = append(baselines, E11Baseline{
			Path:           path,
			NsPerTuple:     float64(elapsed.Nanoseconds()) / float64(n),
			AllocsPerTuple: float64(allocs) / float64(n),
		})
		return nil
	}
	// slice path: in-memory tuples, TupleResult records (the jobs
	// artifact / HTTP results shape).
	if err := runBaseline("slice", func(out io.Writer) (func() (*schema.Tuple, error), func(*core.ChaseResult) error) {
		enc := json.NewEncoder(out)
		i := 0
		next := func() (*schema.Tuple, error) {
			if i >= n {
				return nil, io.EOF
			}
			tu := w.Dirty[i]
			i++
			return tu, nil
		}
		emit := func(res *core.ChaseResult) error {
			return enc.Encode(jobs.NewTupleResult(sch, &pipeline.Result{Input: res.Tuple, Fixed: res.Tuple, Chase: res}))
		}
		return next, emit
	}); err != nil {
		return nil, nil, err
	}

	// csv path: fresh-record CSV decode, Strings() encode.
	if err := runBaseline("csv", func(out io.Writer) (func() (*schema.Tuple, error), func(*core.ChaseResult) error) {
		cr := csv.NewReader(bytes.NewReader(csvIn.Bytes()))
		header, err := cr.Read()
		_ = header
		outW := csv.NewWriter(out)
		_ = outW.Write(sch.AttrNames())
		next := func() (*schema.Tuple, error) {
			if err != nil {
				return nil, err
			}
			rec, rerr := cr.Read()
			if rerr != nil {
				if rerr == io.EOF {
					outW.Flush()
				}
				return nil, rerr
			}
			vals := make(value.List, sch.Len())
			for i, cell := range rec {
				vals[i] = value.V(cell) // header == schema order by construction
			}
			return &schema.Tuple{Schema: sch, Vals: vals}, nil
		}
		emit := func(res *core.ChaseResult) error { return outW.Write(res.Tuple.Vals.Strings()) }
		return next, emit
	}); err != nil {
		return nil, nil, err
	}

	// jsonl path: map-decode per line, jsonlRecord encode per result.
	if err := runBaseline("jsonl", func(out io.Writer) (func() (*schema.Tuple, error), func(*core.ChaseResult) error) {
		sc := bufio.NewScanner(bytes.NewReader(jsonlIn.Bytes()))
		enc := json.NewEncoder(out)
		next := func() (*schema.Tuple, error) {
			for sc.Scan() {
				line := sc.Bytes()
				if len(line) == 0 {
					continue
				}
				var m map[string]string
				if err := json.Unmarshal(line, &m); err != nil {
					return nil, err
				}
				return schema.TupleFromMap(sch, m)
			}
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		emit := func(res *core.ChaseResult) error {
			rec := e11JSONLRecord{Tuple: res.Tuple.Map(), Done: res.AllValidated() && len(res.Conflicts) == 0, Rewrites: len(res.Rewrites())}
			for _, c := range res.Conflicts {
				rec.Conflicts = append(rec.Conflicts, c.Error())
			}
			return enc.Encode(rec)
		}
		return next, emit
	}); err != nil {
		return nil, nil, err
	}

	// Pipeline runs: every (path × workers) cell, parity-gated against
	// the baseline bytes.
	var rows []E11Row
	for _, path := range []string{"slice", "csv", "jsonl"} {
		for _, workers := range workerCounts {
			mkRun := func(verify *e11VerifyWriter) (pipeline.Source, pipeline.Sink, func() error, error) {
				switch path {
				case "slice":
					enc := jobs.NewResultEncoder(sch)
					var line []byte
					sink := pipeline.SinkFunc(func(r *pipeline.Result) error {
						line = enc.Append(line[:0], r)
						line = append(line, '\n')
						_, err := verify.Write(line)
						return err
					})
					return pipeline.NewSliceSource(w.Dirty), sink, nil, nil
				case "csv":
					src, err := pipeline.NewCSVSource(sch, bytes.NewReader(csvIn.Bytes()))
					if err != nil {
						return nil, nil, nil, err
					}
					sink, err := pipeline.NewCSVSink(sch, verify)
					if err != nil {
						return nil, nil, nil, err
					}
					return src, sink, sink.Flush, nil
				default:
					return pipeline.NewJSONLSource(sch, bytes.NewReader(jsonlIn.Bytes())), pipeline.NewJSONLSink(verify), nil, nil
				}
			}
			measure := func() (time.Duration, uint64, error) {
				verify := &e11VerifyWriter{want: want[path]}
				src, sink, flush, err := mkRun(verify)
				if err != nil {
					return 0, 0, err
				}
				runtime.GC()
				m0 := mallocs()
				start := time.Now()
				stats, err := pipeline.Run(context.Background(), eng, seedSet, src, sink, &pipeline.Options{Workers: workers})
				if err != nil {
					return 0, 0, err
				}
				if flush != nil {
					if err := flush(); err != nil {
						return 0, 0, err
					}
				}
				elapsed := time.Since(start)
				allocs := mallocs() - m0
				if stats.Tuples != n {
					return 0, 0, fmt.Errorf("e11 %s/%dw: %d of %d tuples", path, workers, stats.Tuples, n)
				}
				if !verify.ok() {
					return 0, 0, fmt.Errorf("e11 %s/%dw: output differs from the sequential baseline", path, workers)
				}
				return elapsed, allocs, nil
			}
			// Warm run (chaser pool, schema bindings), then the
			// measured run.
			if _, _, err := measure(); err != nil {
				return nil, nil, err
			}
			elapsed, allocs, err := measure()
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, E11Row{
				Path:           path,
				Workers:        workers,
				NsPerTuple:     float64(elapsed.Nanoseconds()) / float64(n),
				TuplesPerSec:   float64(n) / elapsed.Seconds(),
				AllocsPerTuple: float64(allocs) / float64(n),
			})
		}
	}
	// Speedups: per path, relative to its 1-worker row — or, when 1 is
	// not among the requested counts, the lowest worker count run (so
	// an order like "8,4,1" cannot invert the column's meaning).
	base := map[string]float64{}
	baseWorkers := map[string]int{}
	for i := range rows {
		r := &rows[i]
		if cur, ok := baseWorkers[r.Path]; !ok || r.Workers < cur {
			baseWorkers[r.Path] = r.Workers
			base[r.Path] = r.TuplesPerSec
		}
	}
	for i := range rows {
		rows[i].Speedup = rows[i].TuplesPerSec / base[rows[i].Path]
	}
	return rows, baselines, nil
}

// --- E12: memory-scale master data --------------------------------------

// E12Row is one master size of the memory-scale experiment: the byte
// cost of a master row in the boxed (map-of-tuples) layout vs the
// columnar frozen layout, snapshot latency in both layouts, and the
// persistence cost of a save in the checkpoint (rewrite master.csv)
// vs WAL-append (fsync a few records) regime. Chase output over the
// same probes must be byte-identical before and after packing — a
// memory number for a wrong answer would be worthless — so every row
// in this table is parity-gated.
type E12Row struct {
	// MasterSize is the number of generated master tuples.
	MasterSize int `json:"master_size"`
	// BoxedBytesPerRow and PackedBytesPerRow are the table's own byte
	// accounting divided by row count, before and after PackColumnar.
	// The packed figure is exact (8 bytes id + 4 bytes per cell); the
	// boxed figure is the estimator rowBoxedCost documents.
	BoxedBytesPerRow  float64 `json:"boxed_bytes_per_row"`
	PackedBytesPerRow float64 `json:"packed_bytes_per_row"`
	// Reduction is BoxedBytesPerRow / PackedBytesPerRow.
	Reduction float64 `json:"bytes_per_row_reduction"`
	// DictBytes is the interning dictionary footprint (shared across
	// every snapshot and generation, amortized over all rows).
	DictBytes int64 `json:"dict_bytes"`
	// HeapSavedBytes corroborates the accounting with the runtime: the
	// drop in live HeapAlloc across the pack (after a full GC on both
	// sides).
	HeapSavedBytes int64 `json:"heap_saved_bytes"`
	// PackNs is the wall time of PackColumnar over the whole table;
	// PackedShards the shards it converted.
	PackNs       int64 `json:"pack_ns"`
	PackedShards int   `json:"packed_shards"`
	// SnapshotNsBoxed/Packed are min-of-reps COW capture latencies
	// (each after a live insert, so no capture reuses a cached one).
	// Packing must not disturb the O(1) snapshot contract.
	SnapshotNsBoxed  int64 `json:"snapshot_ns_boxed"`
	SnapshotNsPacked int64 `json:"snapshot_ns_packed"`
	// SaveCheckpointNs is a full Save (rewrite + directory swap);
	// SaveAppendNs is a Save after one more insert (WAL append +
	// fsync). SaveSpeedup is their ratio — the point of the WAL.
	SaveCheckpointNs int64   `json:"save_checkpoint_ns"`
	SaveAppendNs     int64   `json:"save_append_ns"`
	SaveSpeedup      float64 `json:"save_speedup"`
	// LoadNs rebuilds the system from checkpoint + WAL replay.
	LoadNs int64 `json:"load_ns"`
	// ParityProbes counts the chases compared pre/post pack.
	ParityProbes int `json:"parity_probes"`
}

// heapAlloc returns live heap bytes after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// RunE12 measures the memory-scale rework: interned + columnar master
// layout and WAL-based incremental persistence, per master size.
func RunE12(sizes []int, probes int, seed uint64) ([]E12Row, error) {
	const snapReps = 5
	seedSet := schema.SetOfNames(dataset.CustSchema(), "zip", "phn", "type", "item")
	tmp, err := os.MkdirTemp("", "cerfix-e12-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var rows []E12Row
	for _, n := range sizes {
		g := dataset.NewCustomerGen(seed)
		// Extra entities feed the snapshot-latency and WAL-append
		// probes without colliding with the n loaded rows.
		entities := g.GenerateEntities(n + 2*snapReps + 1)
		sys, err := cerfix.NewWithRules(dataset.CustSchema(), dataset.PersonSchema(), dataset.DemoRules())
		if err != nil {
			return nil, err
		}
		st := sys.Master()
		tb := st.Table()
		for _, e := range entities[:n] {
			if _, err := tb.InsertValues(e.Master...); err != nil {
				return nil, err
			}
		}
		if err := st.PrepareForRules(dataset.DemoRules()); err != nil {
			return nil, err
		}
		inputs := make([]*schema.Tuple, probes)
		for i := range inputs {
			inputs[i] = g.CleanInput(entities[i%n])
		}
		extra := entities[n:]

		// Boxed-layout probe results (the parity baseline) and boxed
		// accounting.
		eng := sys.Engine()
		pre := make([]*core.ChaseResult, len(inputs))
		ch := eng.Snapshot().NewChaser()
		for i, tu := range inputs {
			pre[i] = ch.Chase(tu, seedSet)
		}
		row := E12Row{MasterSize: n, ParityProbes: len(inputs)}
		mem := sys.MemStats()
		if mem.Table.Rows == 0 || mem.Table.BoxedBytes == 0 {
			return nil, fmt.Errorf("e12: empty boxed accounting at size %d", n)
		}
		row.BoxedBytesPerRow = float64(mem.Table.BoxedBytes) / float64(mem.Table.Rows)

		// Boxed snapshot latency (insert first so no capture is cached).
		for i := 0; i < snapReps; i++ {
			if _, err := st.InsertValues(extra[i].Master...); err != nil {
				return nil, err
			}
			start := time.Now()
			snap := eng.Snapshot()
			el := time.Since(start).Nanoseconds()
			if row.SnapshotNsBoxed == 0 || el < row.SnapshotNsBoxed {
				row.SnapshotNsBoxed = el
			}
			if snap.Master().Len() != st.Len() {
				return nil, fmt.Errorf("e12: snapshot lost rows at size %d", n)
			}
		}

		// Pack, with the runtime watching the heap on both sides.
		heapBefore := heapAlloc()
		start := time.Now()
		row.PackedShards = sys.PackMaster(0)
		row.PackNs = time.Since(start).Nanoseconds()
		if row.PackedShards == 0 {
			return nil, fmt.Errorf("e12: nothing packed at size %d", n)
		}
		// The pre-pack frozen view stays referenced by the
		// generation-snapshot caches until a fresh capture replaces
		// them; refresh so the boxed shard maps are collectable before
		// the after-side heap reading.
		eng.Snapshot()
		row.HeapSavedBytes = int64(heapBefore) - int64(heapAlloc())
		mem = sys.MemStats()
		if mem.Table.PackedRows == 0 {
			return nil, fmt.Errorf("e12: no packed rows at size %d", n)
		}
		row.PackedBytesPerRow = float64(mem.Table.PackedBytes) / float64(mem.Table.PackedRows)
		row.Reduction = row.BoxedBytesPerRow / row.PackedBytesPerRow
		row.DictBytes = mem.Table.Dict.Bytes

		// Parity gate: the packed layout must chase byte-identically.
		ch = eng.Snapshot().NewChaser()
		for i, tu := range inputs {
			if !chaseResultsAgree(pre[i], ch.Chase(tu, seedSet)) {
				return nil, fmt.Errorf("e12: packed chase diverged at size %d probe %d", n, i)
			}
		}

		// Packed snapshot latency.
		for i := snapReps; i < 2*snapReps; i++ {
			if _, err := st.InsertValues(extra[i].Master...); err != nil {
				return nil, err
			}
			start := time.Now()
			eng.Snapshot()
			el := time.Since(start).Nanoseconds()
			if row.SnapshotNsPacked == 0 || el < row.SnapshotNsPacked {
				row.SnapshotNsPacked = el
			}
		}

		// Persistence: full checkpoint, then a one-insert WAL append,
		// then a load (checkpoint + replay).
		dir := filepath.Join(tmp, fmt.Sprintf("instance-%d", n))
		start = time.Now()
		if err := sys.Save(dir); err != nil {
			return nil, err
		}
		row.SaveCheckpointNs = time.Since(start).Nanoseconds()
		if _, err := st.InsertValues(extra[2*snapReps].Master...); err != nil {
			return nil, err
		}
		start = time.Now()
		if err := sys.Save(dir); err != nil {
			return nil, err
		}
		row.SaveAppendNs = time.Since(start).Nanoseconds()
		if row.SaveAppendNs > 0 {
			row.SaveSpeedup = float64(row.SaveCheckpointNs) / float64(row.SaveAppendNs)
		}
		if _, err := os.Stat(filepath.Join(dir, "wal.jsonl")); err != nil {
			return nil, fmt.Errorf("e12: append save wrote no WAL at size %d: %w", n, err)
		}
		start = time.Now()
		loaded, err := cerfix.Load(dir)
		if err != nil {
			return nil, err
		}
		row.LoadNs = time.Since(start).Nanoseconds()
		if loaded.Master().Len() != st.Len() {
			return nil, fmt.Errorf("e12: load got %d rows, want %d", loaded.Master().Len(), st.Len())
		}
		info := loaded.LoadInfo()
		if info == nil || info.WALRows != 1 {
			return nil, fmt.Errorf("e12: load did not replay the WAL append: %+v", info)
		}
		os.RemoveAll(dir) // free disk before the next size
		rows = append(rows, row)
	}
	return rows, nil
}

// --- E13: simd scanning & premise prefilter ----------------------------

// E13ScanRow is one input-format row scan measurement: the stdlib
// reference decoder (bufio.Scanner + encoding/json, or encoding/csv)
// against the simd-scanned pipeline source, over the same bytes, with
// every decoded tuple compared before either side is timed.
type E13ScanRow struct {
	// Format is "jsonl" or "csv".
	Format string `json:"format"`
	// MegaBytes is the input size; Tuples the row count.
	MegaBytes float64 `json:"megabytes"`
	Tuples    int     `json:"tuples"`
	// RefNsPerTuple/RefMBPerSec time the stdlib reference decoder.
	RefNsPerTuple float64 `json:"ref_ns_per_tuple"`
	RefMBPerSec   float64 `json:"ref_mb_per_sec"`
	// SimdNsPerTuple/SimdMBPerSec time the pipeline source.
	SimdNsPerTuple float64 `json:"simd_ns_per_tuple"`
	SimdMBPerSec   float64 `json:"simd_mb_per_sec"`
	// Speedup is SimdMBPerSec / RefMBPerSec.
	Speedup float64 `json:"speedup"`
}

// E13ChaseRow is one rule-count cell of the prefilter measurement:
// the same chaser with the premise prefilter on vs off over identical
// dirty inputs, parity-gated against the legacy oracle first.
type E13ChaseRow struct {
	Rules      int `json:"rules"`
	MasterSize int `json:"master_size"`
	// Mode is the store's lookup mode for the row. On rule-index a
	// dictionary miss already short-circuits inside the probe, so the
	// prefilter's margin is thin; on plain-index and scan a skipped
	// rule saves a real key projection plus an index probe or a full
	// relation scan.
	Mode string `json:"mode"`
	// BaselineNsPerFix times the prefilter-off chase (the pre-PR
	// agenda), PrefilterNsPerFix the prefilter-on chase: each the
	// median over Repeats best-of-N measurements.
	BaselineNsPerFix  float64 `json:"baseline_ns_per_fix"`
	PrefilterNsPerFix float64 `json:"prefilter_ns_per_fix"`
	// Speedup is the median over Repeats of each repetition's
	// baseline/prefilter ratio; SpeedupMin and SpeedupMax bound its
	// spread, so one run shows whether a margin is real.
	Speedup    float64 `json:"speedup"`
	SpeedupMin float64 `json:"speedup_min"`
	SpeedupMax float64 `json:"speedup_max"`
	Repeats    int     `json:"repeats"`
	// RulesSkipped/RulesEvaluated are the prefilter-on run's agenda
	// counters; SkipRate = skipped / (skipped + evaluated).
	RulesSkipped   int64   `json:"rules_skipped"`
	RulesEvaluated int64   `json:"rules_evaluated"`
	SkipRate       float64 `json:"skip_rate"`
}

// e13ScanPasses and e13ChasePasses are the best-of-N pass counts.
// Scan passes are milliseconds, so N can be high; a forced-scan chase
// pass is seconds, so N stays small. e13Repeats is how many times each
// prefilter row's best-of-N measurement is repeated, interleaved with
// the other rows, for its median and spread.
const (
	e13ScanPasses  = 10
	e13ChasePasses = 5
	e13Repeats     = 5
)

// medianOf returns the median of xs (the mean of the middle two for an
// even count) without reordering xs.
func medianOf(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// decodeAll drains a tuple source, cloning values into out for the
// parity gate (pass nil to just count).
func decodeAll(next func() (*schema.Tuple, error), out *[]value.List) (int, error) {
	n := 0
	for {
		tu, err := next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if out != nil {
			*out = append(*out, append(value.List(nil), tu.Vals...))
		}
		n++
	}
}

// RunE13 measures the PR's two hot-path claims. Scan: JSONL and CSV
// row decoding via the simd-scanned sources vs the exact stdlib
// decoders they replaced, parity-gated tuple by tuple. Chase: the
// premise prefilter on vs off at growing rule counts over dirty
// inputs (whose noised key values miss the master dictionary — the
// case the match-mask reject serves), parity-gated against
// Engine.ChaseLegacy, reporting the skip rate alongside the latency.
func RunE13(scanTuples int, ruleCounts []int, masterSize, probes int, seed uint64) ([]E13ScanRow, []E13ChaseRow, error) {
	sch := dataset.CustSchema()
	g := dataset.NewCustomerGen(seed)
	w, err := g.GenerateWorkload(100, scanTuples, 0.3, nil)
	if err != nil {
		return nil, nil, err
	}

	// Materialize the two stream shapes once.
	var csvIn bytes.Buffer
	cw := csv.NewWriter(&csvIn)
	if err := cw.Write(sch.AttrNames()); err != nil {
		return nil, nil, err
	}
	for _, tu := range w.Dirty {
		if err := cw.Write(tu.Vals.Strings()); err != nil {
			return nil, nil, err
		}
	}
	cw.Flush()
	var jsonlIn bytes.Buffer
	jenc := json.NewEncoder(&jsonlIn)
	for _, tu := range w.Dirty {
		if err := jenc.Encode(tu.Map()); err != nil {
			return nil, nil, err
		}
	}

	refJSONL := func(r io.Reader) func() (*schema.Tuple, error) {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		return func() (*schema.Tuple, error) {
			for sc.Scan() {
				line := sc.Bytes()
				if len(line) == 0 {
					continue
				}
				m := make(map[string]string)
				if err := json.Unmarshal(line, &m); err != nil {
					return nil, err
				}
				return schema.TupleFromMap(sch, m)
			}
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
	}
	refCSV := func(r io.Reader) func() (*schema.Tuple, error) {
		cr := csv.NewReader(r)
		if _, err := cr.Read(); err != nil { // header
			return func() (*schema.Tuple, error) { return nil, err }
		}
		cr.ReuseRecord = true
		tu := &schema.Tuple{Schema: sch, Vals: make(value.List, sch.Len())}
		return func() (*schema.Tuple, error) {
			rec, err := cr.Read()
			if err != nil {
				return nil, err
			}
			for i, cell := range rec {
				tu.Vals[i] = value.V(cell)
			}
			return tu, nil
		}
	}
	newJSONL := func(r io.Reader) func() (*schema.Tuple, error) {
		return pipeline.NewJSONLSource(sch, r).Next
	}
	newCSV := func(r io.Reader) func() (*schema.Tuple, error) {
		src, err := pipeline.NewCSVSource(sch, r)
		if err != nil {
			return func() (*schema.Tuple, error) { return nil, err }
		}
		return src.Next
	}

	var scanRows []E13ScanRow
	for _, c := range []struct {
		format   string
		input    []byte
		ref, new func(io.Reader) func() (*schema.Tuple, error)
	}{
		{"jsonl", jsonlIn.Bytes(), refJSONL, newJSONL},
		{"csv", csvIn.Bytes(), refCSV, newCSV},
	} {
		// Parity gate: every decoded tuple must agree before either
		// decoder is timed.
		var wantVals, gotVals []value.List
		if _, err := decodeAll(c.ref(bytes.NewReader(c.input)), &wantVals); err != nil {
			return nil, nil, fmt.Errorf("e13 %s reference decode: %w", c.format, err)
		}
		if _, err := decodeAll(c.new(bytes.NewReader(c.input)), &gotVals); err != nil {
			return nil, nil, fmt.Errorf("e13 %s simd decode: %w", c.format, err)
		}
		if len(wantVals) != len(gotVals) {
			return nil, nil, fmt.Errorf("e13 %s: %d tuples vs %d from reference", c.format, len(gotVals), len(wantVals))
		}
		for i := range wantVals {
			for j := range wantVals[i] {
				if wantVals[i][j] != gotVals[i][j] {
					return nil, nil, fmt.Errorf("e13 %s: tuple %d attr %d: %q vs reference %q",
						c.format, i, j, gotVals[i][j], wantVals[i][j])
				}
			}
		}
		row := E13ScanRow{
			Format:    c.format,
			MegaBytes: float64(len(c.input)) / 1e6,
			Tuples:    len(wantVals),
		}
		// Best-of-N: both decoders get the same treatment, and the
		// minimum is robust to GC pauses and scheduler interference.
		timeDecode := func(mk func(io.Reader) func() (*schema.Tuple, error)) (float64, error) {
			best := math.Inf(1)
			for p := 0; p < e13ScanPasses; p++ {
				runtime.GC()
				start := time.Now()
				n, err := decodeAll(mk(bytes.NewReader(c.input)), nil)
				elapsed := time.Since(start)
				if err != nil {
					return 0, err
				}
				if n != row.Tuples {
					return 0, fmt.Errorf("decoded %d of %d tuples", n, row.Tuples)
				}
				if ns := float64(elapsed.Nanoseconds()); ns < best {
					best = ns
				}
			}
			return best, nil
		}
		refNs, err := timeDecode(c.ref)
		if err != nil {
			return nil, nil, fmt.Errorf("e13 %s reference: %w", c.format, err)
		}
		simdNs, err := timeDecode(c.new)
		if err != nil {
			return nil, nil, fmt.Errorf("e13 %s simd: %w", c.format, err)
		}
		row.RefNsPerTuple = refNs / float64(row.Tuples)
		row.SimdNsPerTuple = simdNs / float64(row.Tuples)
		row.RefMBPerSec = float64(len(c.input)) / 1e6 / (refNs / 1e9)
		row.SimdMBPerSec = float64(len(c.input)) / 1e6 / (simdNs / 1e9)
		if row.RefMBPerSec > 0 {
			row.Speedup = row.SimdMBPerSec / row.RefMBPerSec
		}
		scanRows = append(scanRows, row)
	}

	// Chase: prefilter on vs off at growing rule counts. Dirty inputs
	// with noised key cells are the prefilter's target case — a noised
	// value misses the master dictionary and rejects every rule probing
	// it before the agenda sees them.
	seedSet := schema.SetOfNames(sch, "zip", "phn", "type", "item")
	cg := dataset.NewCustomerGen(seed + 1)
	cw2, err := cg.GenerateWorkload(masterSize, probes, 0.4, nil)
	if err != nil {
		return nil, nil, err
	}
	st := cw2.Store
	inputs := cw2.Dirty

	// Every (rule count, mode) cell is parity-gated first; then the
	// timed measurement repeats e13Repeats times, each repetition
	// sweeping all cells in turn, so slow machine drift spreads over
	// every row instead of loading whichever row it coincides with.
	type chaseCell struct {
		row         E13ChaseRow
		mode        master.LookupMode
		on, off     *core.Chaser
		onNs, offNs []float64
		speedups    []float64
	}
	var cells []*chaseCell
	modes := []master.LookupMode{master.ModeRuleIndex, master.ModePlainIndex, master.ModeScan}
	defer st.SetMode(master.ModeRuleIndex)
	for _, nRules := range ruleCounts {
		rs, err := ruleSetOfSize(nRules)
		if err != nil {
			return nil, nil, err
		}
		eng, err := core.NewEngine(sch, rs, st)
		if err != nil {
			return nil, nil, err
		}
		on := eng.NewChaser()
		off := eng.NewChaser()
		off.SetPrefilter(false)
		for _, mode := range modes {
			st.SetMode(mode)
			// Parity gate + warm-up: every probe, both configurations,
			// against the legacy oracle under the same mode.
			for _, tu := range inputs {
				want := eng.ChaseLegacy(tu, seedSet)
				if !chaseResultsAgree(on.ChaseScratch(tu, seedSet), want) {
					return nil, nil, fmt.Errorf("e13: prefiltered chase diverges from legacy at %d rules (%s)", nRules, mode)
				}
				if !chaseResultsAgree(off.ChaseScratch(tu, seedSet), want) {
					return nil, nil, fmt.Errorf("e13: prefilter-off chase diverges from legacy at %d rules (%s)", nRules, mode)
				}
			}
			c := &chaseCell{row: E13ChaseRow{Rules: nRules, MasterSize: masterSize, Mode: mode.String(), Repeats: e13Repeats},
				mode: mode, on: on, off: off}
			// Counter deltas bracket one prefiltered pass alone: the
			// program-lifetime totals also tick during off passes (0
			// skips, full evaluations) and would dilute the rate.
			skip0, eval0 := eng.PrefilterStats()
			for _, tu := range inputs {
				on.ChaseScratch(tu, seedSet)
			}
			skip1, eval1 := eng.PrefilterStats()
			c.row.RulesSkipped = skip1 - skip0
			c.row.RulesEvaluated = eval1 - eval0
			if total := c.row.RulesSkipped + c.row.RulesEvaluated; total > 0 {
				c.row.SkipRate = float64(c.row.RulesSkipped) / float64(total)
			}
			cells = append(cells, c)
		}
	}
	pass := func(c *core.Chaser) float64 {
		runtime.GC()
		start := time.Now()
		for _, tu := range inputs {
			c.ChaseScratch(tu, seedSet)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(inputs))
	}
	for rep := 0; rep < e13Repeats; rep++ {
		for _, c := range cells {
			st.SetMode(c.mode)
			// Best-of-N with the two configurations interleaved pass
			// by pass: the minimum is robust to GC pauses, and
			// interleaving keeps drift from loading one side.
			bestOn, bestOff := math.Inf(1), math.Inf(1)
			for p := 0; p < e13ChasePasses; p++ {
				bestOn = min(bestOn, pass(c.on))
				bestOff = min(bestOff, pass(c.off))
			}
			c.onNs = append(c.onNs, bestOn)
			c.offNs = append(c.offNs, bestOff)
			c.speedups = append(c.speedups, bestOff/bestOn)
		}
	}
	chaseRows := make([]E13ChaseRow, len(cells))
	for i, c := range cells {
		c.row.PrefilterNsPerFix = medianOf(c.onNs)
		c.row.BaselineNsPerFix = medianOf(c.offNs)
		c.row.Speedup = medianOf(c.speedups)
		c.row.SpeedupMin = slices.Min(c.speedups)
		c.row.SpeedupMax = slices.Max(c.speedups)
		chaseRows[i] = c.row
	}
	return scanRows, chaseRows, nil
}
