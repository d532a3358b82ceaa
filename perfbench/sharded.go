package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"ringrobots/internal/drainpool"
	"ringrobots/internal/feasibility"
)

// workerFlag, as the first argument, turns this binary into a drain-pool
// worker: the coordinator's Launch re-executes the benchmark with it.
const workerFlag = "-pool-worker"

// shardedSpec is a sharded drain: an instance run through drainpool.Run
// with cmd/drain's coordinator defaults, and the verdict it must reach.
type shardedSpec struct {
	inst   feasibility.Instance
	shards int
	want   want
}

// theShardedDrain is the drain-sharded workload: (11,7), which has a
// survivor at tier 2, over 2 shards.
var theShardedDrain = shardedSpec{feasibility.Instance{N: 11, K: 7}, 2, want{false, 2}}

// workerReport is what a worker writes for the coordinator side to
// merge: its own resource usage at exit and, when traced, its RunShard
// span and journal operations. The workers' peak RSS comes from here,
// not from RUSAGE_CHILDREN, which would also count the go build that
// run.sh waited for before it exec'd the benchmark, and each worker's
// maxrss from before its execve (see peakRSSMB).
type workerReport struct {
	Spans      []span   `json:"spans"`
	Journal    fsCounts `json:"journal"`
	CPUSeconds float64  `json:"cpu_s"`
	PeakRSSMB  float64  `json:"peak_rss_mb"`
}

// workerMain runs one shard the way `cmd/drain -worker` does and writes
// a workerReport to -report.
func workerMain(args []string) int {
	fl := flag.NewFlagSet(workerFlag, flag.ContinueOnError)
	path := fl.String("journal", "", "shard journal")
	budget := fl.Int("budget", 0, "WorkerSpec.Budget")
	every := fl.Int("checkpoint-every", 0, "WorkerSpec.CheckpointEvery")
	solverWorkers := fl.Int("solver-workers", 0, "WorkerSpec.SolverWorkers")
	heartbeat := fl.Duration("heartbeat", 0, "WorkerSpec.Heartbeat")
	reportPath := fl.String("report", "", "write a worker report here")
	traced := fl.Bool("trace", false, "record spans and journal operations")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	opt := drainpool.WorkerOptions{Budget: *budget, CheckpointEvery: *every, SolverWorkers: *solverWorkers, Heartbeat: *heartbeat}
	var tr *tracer
	var fs *countingFS
	if *traced {
		tr = newTracer()
		fs = newCountingFS(tr)
		opt.FS = fs
	}
	end := func() {}
	if tr != nil {
		_, end = tr.begin("drainpool.run_shard", 0)
	}
	err := drainpool.RunShard(ctx, *path, opt)
	end()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	rep := workerReport{CPUSeconds: cpuSeconds(), PeakRSSMB: peakRSSMB()}
	if tr != nil {
		rep.Spans, rep.Journal = tr.snapshot(), fs.counts()
	}
	// Span ids are only unique within this process; tag them with the
	// process so the merged trace keeps them apart.
	for i := range rep.Spans {
		rep.Spans[i].ID |= uint64(os.Getpid()) << 32
		if rep.Spans[i].Parent != 0 {
			rep.Spans[i].Parent |= uint64(os.Getpid()) << 32
		}
	}
	raw, err := json.Marshal(rep)
	if err == nil {
		err = os.WriteFile(*reportPath, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	return 0
}

// launch is one worker process the coordinator started.
type launch struct {
	drain  int // index of the drain within the run
	spec   drainpool.WorkerSpec
	cmd    *exec.Cmd
	at     time.Time
	report string // workerReport path
}

// runDrainSharded: theShardedDrain through drainpool.Run, workers
// re-executing this binary. Whole drains repeat until the timed phase
// has lasted r.seconds.
func runDrainSharded(r *run) error { return r.runShardedSpec(theShardedDrain) }

func (r *run) runShardedSpec(spec shardedSpec) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	poolDir := func(i int) string { return filepath.Join(r.dir, fmt.Sprintf("pool-%d", i)) }
	if err := os.MkdirAll(poolDir(0), 0o755); err != nil {
		return err
	}
	err = r.timeSetup(setupRepeats, func(int) error {
		return openEmptyJournal(filepath.Join(poolDir(0), "pool.journal"))
	}, nil)
	if err != nil {
		return err
	}

	var launches []*launch
	var verdictS []float64
	var st shardedStats
	phase := time.Now()
	for i := 0; len(verdictS) == 0 || time.Since(phase) < r.seconds; i++ {
		dir := poolDir(i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		cfg := drainpool.Config{
			Dir:             dir,
			Instance:        spec.inst,
			Shards:          spec.shards,
			Lease:           30 * time.Second, // cmd/drain -lease default
			CheckpointEvery: checkpointEvery,
			SolverWorkers:   1,
			Launch: func(ws drainpool.WorkerSpec) *exec.Cmd {
				args := []string{workerFlag, "-journal", ws.JournalPath,
					"-budget", strconv.Itoa(ws.Budget),
					"-checkpoint-every", strconv.Itoa(ws.CheckpointEvery),
					"-solver-workers", strconv.Itoa(ws.SolverWorkers),
					"-heartbeat", ws.Heartbeat.String()}
				l := &launch{drain: len(verdictS), spec: ws, at: time.Now(),
					report: filepath.Join(dir, fmt.Sprintf("worker-g%03d-s%03d-a%d.json", ws.Gen, ws.Shard, ws.Attempt))}
				args = append(args, "-report", l.report)
				if r.tr != nil {
					args = append(args, "-trace")
				}
				l.cmd = exec.Command(exe, args...)
				l.cmd.Stderr = os.Stderr
				launches = append(launches, l)
				return l.cmd
			},
		}
		cpu0 := cpuSeconds()
		start := time.Now()
		res, err := drainpool.Run(context.Background(), cfg)
		end := time.Now()
		verdictS = append(verdictS, end.Sub(start).Seconds())
		st.ends = append(st.ends, end)
		st.coordCPU += cpuSeconds() - cpu0
		st.units += res.ExpansionUnits
		st.tables += int64(res.TablesExplored)
		if werr := waitWorkers(launches); werr != nil {
			return werr
		}
		ok := err == nil && res.Impossible == spec.want.impossible && res.Tier == spec.want.tier &&
			(res.SurvivorTable != nil) == !spec.want.impossible
		r.op(ok, "sharded drain %v: impossible=%v tier=%d survivor=%v err=%v, want %+v",
			spec.inst, res.Impossible, res.Tier, res.SurvivorTable != nil, err, spec.want)
		if err != nil {
			return err
		}
		// The verdict must be journaled: a second Run over the same
		// directory returns it without launching anything.
		before := len(launches)
		again, err := drainpool.Run(context.Background(), cfg)
		r.op(err == nil && len(launches) == before && again.Impossible == res.Impossible && again.Tier == res.Tier,
			"sharded drain %v: rerun returned impossible=%v tier=%d err=%v after %d launches",
			spec.inst, again.Impossible, again.Tier, err, len(launches)-before)
	}
	r.note("drains (s): %.3f", verdictS)
	r.e2e("ok_share", r.okShare(), "ratio")
	reports, err := readReports(launches)
	if err != nil {
		return err
	}
	workerRSS := 0.0
	for _, rep := range reports {
		workerRSS = max(workerRSS, rep.PeakRSSMB)
	}
	r.e2e("peak_rss_mb", peakRSSMB()+workerRSS, "MB")
	r.drainLatency(verdictS)
	if r.tr != nil {
		r.layerDrainpool(launches, reports, st)
	}
	return nil
}

// waitWorkers returns once every launched worker has exited and been
// reaped by the coordinator, killing any that outlive a grace period.
func waitWorkers(launches []*launch) error {
	gone := func(l *launch) bool {
		return l.cmd.Process == nil || errors.Is(syscall.Kill(l.cmd.Process.Pid, 0), syscall.ESRCH)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, l := range launches {
		for !gone(l) {
			if time.Now().After(deadline) {
				l.cmd.Process.Kill()
				if time.Now().After(deadline.Add(5 * time.Second)) {
					return fmt.Errorf("worker pid %d did not exit", l.cmd.Process.Pid)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// shardedStats accumulates the coordinator side of a run's drains.
type shardedStats struct {
	ends          []time.Time // when each drain's Run returned its verdict
	coordCPU      float64
	units, tables int64
}

// genKey names one generation of one drain of the run.
type genKey struct{ drain, gen int }

// layerDrainpool merges the worker reports and reports the drainpool
// layer per drain, plus the workers' journal operations. reports[i]
// belongs to launches[i].
func (r *run) layerDrainpool(launches []*launch, reports []workerReport, st shardedStats) {
	var journal fsCounts
	var workerCPU, workerRSS float64
	gens := map[genKey]int64{}        // first launch (Unix ns)
	shardEnds := map[genKey][]int64{} // RunShard span ends (Unix ns)
	for i, l := range launches {
		g := genKey{l.drain, l.spec.Gen}
		if first, ok := gens[g]; !ok || l.at.UnixNano() < first {
			gens[g] = l.at.UnixNano()
		}
		rep := reports[i]
		r.tr.add(rep.Spans...)
		journal.add(rep.Journal)
		workerCPU += rep.CPUSeconds
		workerRSS = max(workerRSS, rep.PeakRSSMB)
		for _, sp := range rep.Spans {
			if sp.Name == "drainpool.run_shard" {
				shardEnds[g] = append(shardEnds[g], sp.End)
			}
		}
	}
	// Per generation: the straggler time is last shard end minus first
	// shard end; the gap runs from the last shard end to the next
	// generation's first launch or, for the last generation of a drain,
	// to the verdict.
	var straggler, gap time.Duration
	for g, es := range shardEnds {
		sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
		last := es[len(es)-1]
		straggler += time.Duration(last - es[0])
		next, ok := gens[genKey{g.drain, g.gen + 1}]
		if !ok {
			next = st.ends[g.drain].UnixNano()
		}
		if next > last {
			gap += time.Duration(next - last)
		}
	}
	per := float64(len(st.ends))
	r.layer("drainpool.generations", float64(len(gens))/per, "count")
	r.layer("drainpool.launches", float64(len(launches))/per, "count")
	r.layer("drainpool.straggler_s", straggler.Seconds()/per, "s")
	r.layer("drainpool.gen_gap_s", gap.Seconds()/per, "s")
	r.layer("drainpool.coord_cpu_s", st.coordCPU/per, "s")
	r.layer("drainpool.worker_cpu_s", workerCPU/per, "s")
	r.layer("drainpool.worker_peak_rss_mb", workerRSS, "MB")
	r.layer("drainpool.units", float64(st.units)/per, "count")
	r.layer("drainpool.tables", float64(st.tables)/per, "count")
	r.layerJournal(journal, per)
}

// readReports reads the report of every launched worker, in launch
// order.
func readReports(launches []*launch) ([]workerReport, error) {
	reports := make([]workerReport, len(launches))
	for i, l := range launches {
		raw, err := os.ReadFile(l.report)
		if err != nil {
			return nil, fmt.Errorf("worker report: %w", err)
		}
		if err := json.Unmarshal(raw, &reports[i]); err != nil {
			return nil, fmt.Errorf("worker report %s: %w", l.report, err)
		}
	}
	return reports, nil
}
