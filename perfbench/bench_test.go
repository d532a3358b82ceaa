package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ringrobots/internal/feasibility"
)

// TestMain lets the sharded smoke test's coordinator re-execute the test
// binary as a drain-pool worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == workerFlag {
		os.Exit(workerMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// funcBody returns the printed body of the named function in a Go file.
func funcBody(t *testing.T, path, name string) string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			var b bytes.Buffer
			if err := printer.Fprint(&b, fset, fd.Body); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
	}
	t.Fatalf("%s has no func %s", path, name)
	return ""
}

func TestMixMatchesMcsim(t *testing.T) {
	ours := funcBody(t, "expected.go", "sampleQueryMix")
	theirs := strings.ReplaceAll(funcBody(t, "../cmd/mcsim/loadgen.go", "sampleQueryMix"), "loadQuery", "query")
	if ours != theirs {
		t.Fatalf("sampleQueryMix drifted from cmd/mcsim:\nours:\n%s\ncmd/mcsim:\n%s", ours, theirs)
	}
}

func TestMixDeterministicWithTenPercentWide(t *testing.T) {
	a, b := sampleQueryMix(7, 100_000), sampleQueryMix(7, 100_000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	other := sampleQueryMix(8, 100_000)
	same := 0
	wide := 0
	for i, q := range a {
		if q == other[i] {
			same++
		}
		if q.budget != 0 {
			wide++
			if q.k != 3 || q.n < 12 || q.n > 16 || q.budget != wideRingBudget {
				t.Fatalf("bad wide query %+v", q)
			}
		} else if _, ok := bandVerdicts[ringKey{q.n, q.k}]; !ok {
			t.Fatalf("band query %+v outside the band", q)
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 draw the same mix")
	}
	if share := float64(wide) / float64(len(a)); share < 0.095 || share > 0.105 {
		t.Fatalf("wide share %.4f, want 0.10", share)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{0, 0.50, 0, false},
	} {
		got, err := percentile(samples(c.n), c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %g) = %v, %v; want %v, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50}, // overlaps the first: [10,50) counts once
		{Parent: 1, Start: 60, End: 70},
		{Parent: 1, Start: 90, End: 120}, // clipped to the parent: [90,100)
		{Parent: 1, Start: 62, End: 65},  // inside another child
	}
	if got := selfTime(parent, kids); got != 40 {
		t.Fatalf("self time %v, want 40ns", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %v, want 100ns", got)
	}
}

// TestDeclaredMetrics checks that the metric tables the benchmark
// prints from are BENCHMARK.json's, in order and with the same units,
// and that every name is well formed.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		file []struct{ Name, Unit string }
		code []declaredMetric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, metrics.go %d", c.key, len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, metrics.go %s %s", c.key, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: metric name %q", c.key, m.Name)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs each workload briefly, untraced and traced, and checks
// that its outputs pass and that its result holds exactly the declared
// metrics of the mode, each end-to-end one above 0. The drains use
// small instances.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cases := []struct {
		name    string
		seconds time.Duration
		run     func(*run) error
	}{
		{"hits", 500 * time.Millisecond, runHits},
		{"mix", 5 * time.Second, runMix},
		{"drain", 0, func(r *run) error {
			return r.runDrainSpec(drainSpec{feasibility.Instance{N: 7, K: 4}, 300, want{true, 0}})
		}},
		{"drain-sharded", 0, func(r *run) error {
			return r.runShardedSpec(shardedSpec{feasibility.Instance{N: 8, K: 5}, 2, want{true, 0}})
		}},
	}
	for _, c := range cases {
		for _, traced := range []bool{false, true} {
			r := &run{seed: 3, seconds: c.seconds, dir: t.TempDir()}
			if traced {
				r.tr = newTracer()
			}
			if err := c.run(r); err != nil {
				t.Fatalf("%s traced=%v: %v", c.name, traced, err)
			}
			if raceEnabled && len(r.rep.thin) > 0 {
				// The race detector slows the service too much for a
				// short run to collect the samples a percentile needs.
				t.Logf("%s traced=%v under -race: %q", c.name, traced, r.rep.thin)
				r.rep.thin = nil
			}
			res := r.rep.result(traced)
			if !res.Correct || r.okShare() != 1 {
				t.Fatalf("%s traced=%v: correct=%v ok_share=%v problems=%q thin=%q unmeasured=%q",
					c.name, traced, res.Correct, r.okShare(), r.rep.problems, r.rep.thin, r.rep.unmeasured(traced))
			}
			want, kind := endToEnd, "end-to-end"
			if traced {
				want, kind = perLayer, "per-layer"
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want the %d declared %s ones", c.name, traced, len(res.Metrics), len(want), kind)
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: %s metric %s = %+v, present %v", c.name, traced, kind, d.name, m, ok)
				}
			}
			if !traced {
				for _, d := range want {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", c.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}
