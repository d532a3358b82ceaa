// Command perfbench is the repository benchmark. Each invocation runs
// one workload in a fresh process against the public entry points — the
// verdict service (service.New + Service.Handler over loopback HTTP),
// the journaled single-process drain (feasibility.Solver, Checkpoint and
// journal.Log, driven the way cmd/drain drives them) and the sharded
// drain (drainpool.Run, whose workers re-execute this binary into
// drainpool.RunShard) — checks every output, and prints one JSON result
// line last:
//
//	bash perfbench/run.sh --workload hits --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run plus the tracing
// overhead against an untraced run of the same workload and seed.
// README.md lists the workloads, metrics and layers.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner. BENCHMARK.json gates
// all but mix, whose run-to-run spread on a shared 2-vCPU host exceeds
// the largest bound a gated metric may have (see README.md); mix stays
// runnable by hand with the same checks.
var workloads = map[string]func(*run) error{
	"hits":          runHits,
	"mix":           runMix,
	"drain":         runDrain,
	"drain-sharded": runDrainSharded,
}

// primary names the end-to-end metric each workload's tracing overhead
// is computed from, and whether higher is better for it.
var primary = map[string]struct {
	name   string
	higher bool
}{
	"hits":          {"latency_p50_ms", false},
	"mix":           {"throughput_per_s", true},
	"drain":         {"latency_p50_ms", false},
	"drain-sharded": {"latency_p50_ms", false},
}

// setupRepeats is how many times a workload performs a cheap set-up
// (opening an empty store or journal); setup_s is the median, which
// damps one-off stalls of a sub-millisecond step.
const setupRepeats = 101

// run is one workload execution: its inputs, its scratch directory and
// the report it fills.
type run struct {
	seed    int64
	seconds time.Duration
	dir     string  // scratch directory for stores and journals
	tr      *tracer // nil in the untraced mode
	rep     report
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects operation outcomes, output-check problems and
// metrics.
type report struct {
	attempted, failed int64
	problems          []string
	thin              []string // end-to-end percentiles refused for too few samples
	notes             []string // sample counts and per-drain times, printed as text
	e2e, layer        []metric
}

// op counts one operation; a failed one is also described.
func (r *run) op(ok bool, format string, args ...any) {
	r.rep.attempted++
	if !ok {
		r.rep.failed++
		r.problem(format, args...)
	}
}

// problem records an output-check failure; it makes the run incorrect.
func (r *run) problem(format string, args ...any) {
	if len(r.rep.problems) < 20 {
		r.rep.problems = append(r.rep.problems, fmt.Sprintf(format, args...))
	} else if len(r.rep.problems) == 20 {
		r.rep.problems = append(r.rep.problems, "(further problems omitted)")
	}
}

// note adds a line of text output, such as a sample count.
func (r *run) note(format string, args ...any) {
	r.rep.notes = append(r.rep.notes, fmt.Sprintf(format, args...))
}

func (r *run) e2e(name string, value float64, unit string) {
	r.rep.e2e = append(r.rep.e2e, metric{name, value, unit})
}

func (r *run) layer(name string, value float64, unit string) {
	r.rep.layer = append(r.rep.layer, metric{name, value, unit})
}

// okShare is the share of attempted operations with the expected
// outcome.
func (r *run) okShare() float64 {
	if r.rep.attempted == 0 {
		return 0
	}
	return float64(r.rep.attempted-r.rep.failed) / float64(r.rep.attempted)
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result holds exactly the declared metrics of the mode: endToEnd
// untraced, perLayer traced. Metrics a workload measures beyond those
// (mix's suspension latency, for one) appear only as text lines. A
// missing end-to-end metric makes the result incorrect; a missing
// per-layer metric belongs to a layer the workload leaves idle and
// reads 0.
func (rep *report) result(traced bool) result {
	set, want := rep.e2e, endToEnd
	if traced {
		set, want = rep.layer, perLayer
	}
	got := make(map[string]metric, len(set))
	for _, m := range set {
		got[m.name] = m
	}
	res := result{
		Correct: len(rep.problems) == 0 && len(rep.thin) == 0 && rep.failed == 0 && rep.attempted > 0 &&
			(traced || len(rep.unmeasured(false)) == 0),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]resultValue, len(want)),
	}
	for _, d := range want {
		if m, ok := got[d.name]; ok || traced {
			res.Metrics[d.name] = resultValue{m.value, d.unit}
		}
	}
	return res
}

// unmeasured lists the declared metrics of the mode the run did not
// measure.
func (rep *report) unmeasured(traced bool) []string {
	set, want := rep.e2e, endToEnd
	if traced {
		set, want = rep.layer, perLayer
	}
	got := make(map[string]bool, len(set))
	for _, m := range set {
		got[m.name] = true
	}
	var out []string
	for _, d := range want {
		if !got[d.name] {
			out = append(out, d.name)
		}
	}
	return out
}

// print writes one "name value unit" line per metric, the problems,
// and the JSON result line last.
func (rep *report) print(w io.Writer, traced bool) error {
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	for _, set := range [][]metric{rep.e2e, rep.layer} {
		for _, m := range set {
			fmt.Fprintf(w, "%-36s %14.6f %s\n", m.name, m.value, m.unit)
		}
	}
	if missing := rep.unmeasured(traced); len(missing) > 0 && traced {
		fmt.Fprintf(w, "idle layers, reported as 0: %s\n", strings.Join(missing, " "))
	} else if len(missing) > 0 {
		fmt.Fprintf(w, "CHECK FAILED: end-to-end metrics not measured: %s\n", strings.Join(missing, " "))
	}
	for _, p := range append(rep.problems, rep.thin...) {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(rep.result(traced))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// calibrate hashes a fixed 1 MiB buffer 32 times with the standard
// library's SHA-256, seven passes, and returns the median pass in
// milliseconds. No repository code runs, so it tells a slow machine
// from a slow change. The buffer is small so it does not raise
// peak_rss_mb.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	x := uint32(2463534242)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		buf[i] = byte(x)
	}
	passes := make([]float64, 7)
	for i := range passes {
		start := time.Now()
		for j := 0; j < 32; j++ {
			sum := sha256.Sum256(buf)
			buf[0] ^= sum[0] // keep every hash dependent on the previous one
		}
		passes[i] = msSince(start)
	}
	return median(passes)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set in MiB: VmHWM from
// /proc/self/status, else getrusage's maxrss. VmHWM comes first because
// maxrss survives execve: in a drain-pool worker it would include the
// coordinator's peak at the time of the launch.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the user plus system CPU time of the process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime)
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// untracedPrimary runs the workload untraced in a child process with the
// same seed and duration and returns the value of its primary metric.
func untracedPrimary(workload string, seed int64, seconds float64, workdir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workdir", workdir, "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("untraced run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return 0, fmt.Errorf("untraced run result: %w", err)
	}
	m, ok := res.Metrics[primary[workload].name]
	if !res.Correct || !ok {
		return 0, errors.New("untraced run failed its checks")
	}
	return m.Value, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == workerFlag {
		os.Exit(workerMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

// benchMain runs one workload and returns the exit code: 0 when every
// output check passed, 1 when one failed or the run could not complete,
// 2 on bad flags.
func benchMain() int {
	workload := flag.String("workload", "", "workload to run: hits, mix, drain or drain-sharded")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for stores, journals and trace files")
	flag.Parse()

	var errs []error
	runner, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		errs = append(errs, fmt.Errorf("-workload %q is not one of %s", *workload, strings.Join(names, ", ")))
	}
	if *seconds <= 0 {
		errs = append(errs, fmt.Errorf("-seconds %v must be positive", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		errs = append(errs, fmt.Errorf("-trace %d must be 0 or 1", *trace))
	}
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", errors.Join(errs...))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: dir}
	calib := calibrate()
	traced := *trace == 1
	var untraced float64
	if traced {
		if untraced, err = untracedPrimary(*workload, *seed, *seconds, *workdir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		r.tr = newTracer()
	}
	if err := runner(r); err != nil {
		r.problem("%s: %v", *workload, err)
	}
	r.layer("calib.sha256_ms", calib, "ms")
	if traced {
		r.layer("trace.overhead_pct", overheadPct(r, *workload, untraced), "%")
		spans := r.tr.snapshot()
		printSelfTimes(os.Stdout, spans)
		if err := writeSpans(filepath.Join(*workdir, "trace-"+*workload+".jsonl"), spans); err != nil {
			r.problem("writing spans: %v", err)
		}
	}
	if err := r.rep.print(os.Stdout, traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !r.rep.result(traced).Correct {
		return 1
	}
	return 0
}

// overheadPct compares the traced run's primary metric with the
// untraced run's, as the percentage by which tracing made it worse.
func overheadPct(r *run, workload string, untraced float64) float64 {
	p := primary[workload]
	for _, m := range r.rep.e2e {
		if m.name != p.name || m.value == 0 || untraced == 0 {
			continue
		}
		if p.higher {
			return (untraced/m.value - 1) * 100
		}
		return (m.value/untraced - 1) * 100
	}
	return 0
}
