package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of the
// samples. It refuses when fewer than minBeyond samples lie beyond the
// quantile, since such a tail is one stall away from a different value.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, max(n-1-idx, 0), minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[idx], nil
}

// median is the middle value (mean of the middle two) of a small set,
// without percentile's tail requirement; for per-run repeats.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pct reports an end-to-end percentile, or fails the run when the
// samples are too few to support it.
func (r *run) pct(name string, samples []float64, p float64, unit string) {
	v, err := percentile(samples, p)
	if err != nil {
		r.rep.thin = append(r.rep.thin, fmt.Sprintf("%s: %v", name, err))
		return
	}
	r.e2e(name, v, unit)
}

// textPct is pct for the percentiles mix prints beyond the declared
// metrics: they appear only as text lines, so a refusal is noted
// instead of failing the run.
func (r *run) textPct(name string, samples []float64, p float64, unit string) {
	v, err := percentile(samples, p)
	if err != nil {
		r.note("%s: %v", name, err)
		return
	}
	r.e2e(name, v, unit)
}

// layerPct is pct for per-layer metrics whose sample count depends on
// the run: a refused percentile is left out, not counted as a problem.
func (r *run) layerPct(name string, samples []float64, p float64, unit string) {
	if v, err := percentile(samples, p); err == nil {
		r.layer(name, v, unit)
	}
}

// timeSetup runs the set-up step the given number of times and reports
// the median as setup_s; every repeat but the last is torn down.
func (r *run) timeSetup(repeats int, step func(i int) error, teardown func(i int) error) error {
	r.note("setup repeats: %d", repeats)
	times := make([]float64, repeats)
	for i := range times {
		start := time.Now()
		if err := step(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(start).Seconds()
		if i < len(times)-1 && teardown != nil {
			if err := teardown(i); err != nil {
				return fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	r.e2e("setup_s", median(times), "s")
	return nil
}

// drainLatency reports the drains' end-to-end metrics. The operation is
// a whole drain, from its start to its journaled verdict: a run holds
// only a few, so latency_p50_ms is their plain median, and
// throughput_per_s is verdicts per second of drain time.
func (r *run) drainLatency(verdictS []float64) {
	total := 0.0
	for _, v := range verdictS {
		total += v
	}
	r.e2e("throughput_per_s", float64(len(verdictS))/total, "1/s")
	r.e2e("latency_p50_ms", median(verdictS)*1000, "ms")
}
