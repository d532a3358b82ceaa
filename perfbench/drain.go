package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"time"

	"ringrobots/internal/faultfs"
	"ringrobots/internal/feasibility"
	"ringrobots/internal/journal"
)

// cmd/drain's defaults, and the budget the drain workload passes it.
const (
	checkpointEvery = 64      // -checkpoint-every
	compactAbove    = 64      // -compact-above
	legBudget       = 500_000 // -budget of each leg of the drain workload
	recCheckpoint   = 'C'     // cmd/drain's journal record tags
	recVerdict      = 'V'
)

// drainSpec is a single-process drain: an instance, driven leg by leg
// the way repeated `cmd/drain -budget legBudget` runs drive it, and the
// verdict it must journal.
type drainSpec struct {
	inst   feasibility.Instance
	budget int
	want   want
}

// theDrain is the drain workload: (11,3), impossible at tier 0.
var theDrain = drainSpec{feasibility.Instance{N: 11, K: 3}, legBudget, want{true, 0}}

// drainStats accumulates the solver and checkpoint layers over a run's
// drains.
type drainStats struct {
	drains, legs                  int
	solverNs                      int64 // Solve/Resume time minus checkpoint-callback time
	checkpoints                   int
	encodeNs, decodeNs            int64
	encodedBytes, maxEncodedBytes int64
	frontierMax                   int
	appendNs, compactNs           int64
	// Sums of the verdict legs' cumulative solver counters.
	units, tables, reexpanded, reused, dominated, memoHits int64
}

func (st *drainStats) addVerdict(res feasibility.Result) {
	st.drains++
	st.units += res.ExpansionUnits
	st.tables += int64(res.TablesExplored)
	st.reexpanded += res.StatesReexpanded
	st.reused += res.BranchesReused
	st.dominated += res.BranchesDominated
	st.memoHits += res.TablesMemoHit
}

// drainer runs drains for one workload execution.
type drainer struct {
	spec  drainSpec
	fsys  faultfs.FS
	tr    *tracer
	stats drainStats
}

// drain runs legs over the journal at path until the verdict lands and
// returns it. Each leg opens the journal, resumes its last checkpoint,
// and appends periodic checkpoints and a suspension checkpoint or the
// verdict, exactly as one cmd/drain invocation does.
func (d *drainer) drain(r *run, parent uint64, path string) (feasibility.Result, error) {
	for leg := 1; ; leg++ {
		res, done, err := d.leg(parent, path)
		r.op(err == nil, "drain %v leg %d: %v", d.spec.inst, leg, err)
		if err != nil {
			return res, err
		}
		if done {
			return res, nil
		}
	}
}

func (d *drainer) span(name string, parent uint64) (uint64, func()) {
	if d.tr == nil {
		return 0, func() {}
	}
	return d.tr.begin(name, parent)
}

func (d *drainer) leg(parent uint64, path string) (res feasibility.Result, done bool, err error) {
	legID, endLeg := d.span("drain.leg", parent)
	defer endLeg()
	d.stats.legs++

	_, endOpen := d.span("journal.open", legID)
	log, err := journal.OpenFS(d.fsys, path, journal.SyncAlways)
	endOpen()
	if err != nil {
		return res, false, err
	}
	defer log.Close()

	s := d.spec.inst.Solver()
	s.Workers = 1
	s.MaxExpansions = d.spec.budget
	var resumeFrom *feasibility.Checkpoint
	if last, ok := log.Last(); ok {
		if last[0] != recCheckpoint {
			return res, false, fmt.Errorf("journal %s ends in record %q, want a checkpoint", path, last[0])
		}
		_, endDecode := d.span("checkpoint.unmarshal", legID)
		start := time.Now()
		resumeFrom, err = feasibility.UnmarshalCheckpoint(last[1:])
		d.stats.decodeNs += time.Since(start).Nanoseconds()
		endDecode()
		if err != nil {
			return res, false, err
		}
	}

	var solveID uint64
	var callbackNs int64
	s.CheckpointEvery = checkpointEvery
	s.OnCheckpoint = func(cp *feasibility.Checkpoint) error {
		cbID, endCb := d.span("feasibility.on_checkpoint", solveID)
		defer endCb()
		start := time.Now()
		defer func() { callbackNs += time.Since(start).Nanoseconds() }()
		if err := d.journalCheckpoint(log, cbID, cp); err != nil {
			return err
		}
		if log.Len() > compactAbove {
			if last, ok := log.Last(); ok {
				_, endCompact := d.span("journal.compact", cbID)
				cstart := time.Now()
				err := log.Compact([][]byte{last})
				d.stats.compactNs += time.Since(cstart).Nanoseconds()
				endCompact()
				return err
			}
		}
		return nil
	}

	name := "feasibility.solve"
	if resumeFrom != nil {
		name = "feasibility.resume"
	}
	var endSolve func()
	solveID, endSolve = d.span(name, legID)
	start := time.Now()
	var cp *feasibility.Checkpoint
	if resumeFrom != nil {
		res, cp, err = s.Resume(context.Background(), resumeFrom)
	} else {
		res, cp, err = s.SolveContext(context.Background())
	}
	d.stats.solverNs += time.Since(start).Nanoseconds() - callbackNs
	endSolve()

	var be *feasibility.BudgetError
	switch {
	case err == nil:
		verdict := fmt.Sprintf("n=%d k=%d impossible=%v tier=%d tables=%d units=%d survivor=%v",
			d.spec.inst.N, d.spec.inst.K, res.Impossible, res.Tier, res.TablesExplored, res.ExpansionUnits, res.SurvivorTable != nil)
		_, endAppend := d.span("journal.append", legID)
		err = log.Append(append([]byte{recVerdict}, verdict...))
		endAppend()
		d.stats.addVerdict(res)
		return res, true, err
	case cp != nil && errors.As(err, &be):
		return res, false, d.journalCheckpoint(log, legID, cp)
	default:
		return res, false, err
	}
}

// journalCheckpoint encodes cp and appends it, as cmd/drain's
// checkpoint callback and suspension path both do.
func (d *drainer) journalCheckpoint(log *journal.Log, parent uint64, cp *feasibility.Checkpoint) error {
	_, endMarshal := d.span("checkpoint.marshal", parent)
	start := time.Now()
	raw, err := cp.MarshalBinary()
	d.stats.encodeNs += time.Since(start).Nanoseconds()
	endMarshal()
	if err != nil {
		return err
	}
	d.stats.checkpoints++
	d.stats.encodedBytes += int64(len(raw))
	d.stats.maxEncodedBytes = max(d.stats.maxEncodedBytes, int64(len(raw)))
	if d.tr != nil {
		d.stats.frontierMax = max(d.stats.frontierMax, cp.Stats().FrontierNodes)
	}
	_, endAppend := d.span("journal.append", parent)
	start = time.Now()
	err = log.Append(append([]byte{recCheckpoint}, raw...))
	d.stats.appendNs += time.Since(start).Nanoseconds()
	endAppend()
	return err
}

var verdictRecord = regexp.MustCompile(`impossible=(true|false) tier=(\d+) .* survivor=(true|false)$`)

// checkJournaledVerdict reopens the journal the way a rerun of
// cmd/drain does and checks that its last record is the expected
// verdict.
func checkJournaledVerdict(path string, w want) error {
	log, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		return err
	}
	defer log.Close()
	last, ok := log.Last()
	if !ok || last[0] != recVerdict {
		return fmt.Errorf("journal %s does not end in a verdict record", path)
	}
	m := verdictRecord.FindStringSubmatch(string(last[1:]))
	wantText := []string{fmt.Sprint(w.impossible), fmt.Sprint(w.tier), fmt.Sprint(!w.impossible)}
	if m == nil || m[1] != wantText[0] || m[2] != wantText[1] || m[3] != wantText[2] {
		return fmt.Errorf("journaled verdict %q, want impossible=%s tier=%s survivor=%s", last[1:], wantText[0], wantText[1], wantText[2])
	}
	return nil
}

// openEmptyJournal is the drains' set-up step: open and close an empty
// journal, as the first leg of a drain does. Repeats reopen the same
// file: creating a file per repeat makes the median swing with the file
// system's metadata commits.
func openEmptyJournal(path string) error {
	log, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		return err
	}
	return log.Close()
}

// runDrain: theDrain, in process, leg by leg until the verdict. Whole
// drains repeat until the timed phase has lasted r.seconds.
func runDrain(r *run) error { return r.runDrainSpec(theDrain) }

func (r *run) runDrainSpec(spec drainSpec) error {
	journalPath := func(i int) string { return filepath.Join(r.dir, fmt.Sprintf("drain-%d.journal", i)) }
	if err := r.timeSetup(setupRepeats, func(int) error { return openEmptyJournal(journalPath(0)) }, nil); err != nil {
		return err
	}
	d := &drainer{spec: spec, fsys: faultfs.OS{}, tr: r.tr}
	var fs *countingFS
	if r.tr != nil {
		fs = newCountingFS(r.tr)
		d.fsys = fs
	}
	var verdictS []float64
	phase := time.Now()
	for i := 0; len(verdictS) == 0 || time.Since(phase) < r.seconds; i++ {
		path := journalPath(i)
		runID, endRun := d.span("drain.run", 0)
		start := time.Now()
		res, err := d.drain(r, runID, path)
		verdictS = append(verdictS, time.Since(start).Seconds())
		endRun()
		if err != nil {
			return err
		}
		if res.Impossible != spec.want.impossible || res.Tier != spec.want.tier {
			r.problem("drain %v: impossible=%v tier=%d, want %+v", spec.inst, res.Impossible, res.Tier, spec.want)
		}
		err = checkJournaledVerdict(path, spec.want)
		r.op(err == nil, "drain %v: %v", spec.inst, err)
	}
	r.note("drains (s): %.3f", verdictS)
	r.e2e("ok_share", r.okShare(), "ratio")
	r.e2e("peak_rss_mb", peakRSSMB(), "MB")
	r.drainLatency(verdictS)
	if r.tr != nil {
		r.layerFeasibility(d.stats)
		r.layerJournal(fs.counts(), float64(d.stats.drains))
	}
	return nil
}

// layerFeasibility reports the solver and checkpoint layers, per drain.
func (r *run) layerFeasibility(st drainStats) {
	per := float64(max(st.drains, 1))
	solverS := float64(st.solverNs) / 1e9 / per
	count := func(name string, v int64) { r.layer(name, float64(v)/per, "count") }
	ms := func(name string, ns int64) { r.layer(name, float64(ns)/1e6/per, "ms") }
	count("feasibility.legs", int64(st.legs))
	r.layer("feasibility.solver_s", solverS, "s")
	count("feasibility.units", st.units)
	count("feasibility.tables", st.tables)
	if solverS > 0 {
		r.layer("feasibility.munits_per_solver_s", float64(st.units)/per/1e6/solverS, "Munits/s")
	}
	count("feasibility.states_reexpanded", st.reexpanded)
	count("feasibility.branches_reused", st.reused)
	count("feasibility.branches_dominated", st.dominated)
	count("feasibility.tables_memo_hit", st.memoHits)
	count("checkpoint.count", int64(st.checkpoints))
	ms("checkpoint.encode_ms", st.encodeNs)
	ms("checkpoint.decode_ms", st.decodeNs)
	r.layer("checkpoint.total_mb", float64(st.encodedBytes)/1e6/per, "MB")
	r.layer("checkpoint.max_kb", float64(st.maxEncodedBytes)/1e3, "KB")
	r.layer("checkpoint.frontier_max", float64(st.frontierMax), "count")
	ms("journal.append_ms", st.appendNs)
	ms("journal.compact_ms", st.compactNs)
}
