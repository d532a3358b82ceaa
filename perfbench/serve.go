package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ringrobots/internal/feasibility"
	"ringrobots/internal/service"
)

// clients is the number of closed-loop client connections: one per
// vCPU of the 2-vCPU machines the baselines were measured on.
const clients = 2

// server is a verdict service with the shipped defaults, listening on
// loopback.
type server struct {
	svc  *service.Service
	http *http.Server
	base string
	done chan error
	fs   *countingFS // nil when untraced
}

// startServer opens an empty store in dir and serves it. Request logs
// are formatted by a slog text handler into a discarding writer, so the
// formatting cost stays in the measurement but no terminal I/O does.
func startServer(dir string, tr *tracer) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := service.Default(filepath.Join(dir, "verdicts.journal"))
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := &server{done: make(chan error, 1)}
	if tr != nil {
		s.fs = newCountingFS(tr)
		cfg.FS = s.fs
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, err
	}
	h := svc.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	s.svc = svc
	s.http = &http.Server{Handler: h}
	s.base = "http://" + ln.Addr().String()
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server and drains the service, closing its store.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.http.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, s.svc.Shutdown(ctx))
}

// fsCounts returns the journal counters, zero when untraced.
func (s *server) fsCounts() fsCounts {
	if s.fs == nil {
		return fsCounts{}
	}
	return s.fs.counts()
}

// warmBand solves every band instance through Service.Solve and checks
// the verdicts, leaving all 35 in the store.
func (r *run) warmBand(s *server) {
	for _, key := range bandKeys() {
		resp := s.svc.Solve(context.Background(), service.Request{Instance: feasibility.Instance{N: key.n, K: key.k}})
		w := bandVerdicts[key]
		if resp.Status != service.StatusVerdict || resp.Verdict == nil ||
			resp.Verdict.Impossible != w.impossible || resp.Verdict.Tier != w.tier {
			r.problem("warming (%d,%d): status %v, verdict %+v, want %+v", key.n, key.k, resp.Status, resp.Verdict, w)
		}
	}
}

func bandKeys() []ringKey {
	keys := make([]ringKey, 0, len(bandVerdicts))
	for key := range bandVerdicts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].n < keys[j].n || keys[i].n == keys[j].n && keys[i].k < keys[j].k
	})
	return keys
}

// outcome classifies one reply.
type outcome int

const (
	outFail    outcome = iota
	outHit             // 200 verdict served from the store
	outSolved          // 200 verdict that needed a solve
	outSuspend         // 202: the solve suspended to a journaled checkpoint
)

// classify checks a reply against the expected answer for its query.
func classify(q query, code int, body *service.SolveBody) (outcome, error) {
	key := ringKey{q.n, q.k}
	w, settles := bandVerdicts[key]
	if q.budget != 0 {
		w, settles = wideSettled[key]
	}
	if !settles {
		if code != http.StatusAccepted || body.Status != "suspended" {
			return outFail, fmt.Errorf("(%d,%d): code %d status %q, want 202 suspended", q.n, q.k, code, body.Status)
		}
		return outSuspend, nil
	}
	if code != http.StatusOK || body.Status != "verdict" || body.Impossible == nil || body.Tier == nil {
		return outFail, fmt.Errorf("(%d,%d): code %d status %q, want 200 verdict", q.n, q.k, code, body.Status)
	}
	if *body.Impossible != w.impossible || *body.Tier != w.tier || body.Survivor == w.impossible {
		return outFail, fmt.Errorf("(%d,%d): impossible=%v tier=%d survivor=%v, want impossible=%v tier=%d",
			q.n, q.k, *body.Impossible, *body.Tier, body.Survivor, w.impossible, w.tier)
	}
	if body.Cached {
		return outHit, nil
	}
	return outSolved, nil
}

// clientLog is what one client goroutine accumulates; merged after the
// loop, so no locking.
type clientLog struct {
	hitMs, suspendMs  []float64
	attempted, failed int64
	problems          []string
	outcomes          map[uint64]outcome // client span id -> outcome, traced only
	replies           int64
}

// loadResult is a finished closed loop.
type loadResult struct {
	logs    []*clientLog
	elapsed time.Duration
}

// closedLoop runs the clients for d: each sends its next query only
// after the previous reply arrived. requireHit makes any reply that is
// not a cache hit a failure.
func (s *server) closedLoop(d time.Duration, tr *tracer, requireHit bool, next func(client int) query) loadResult {
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		l := &clientLog{hitMs: make([]float64, 0, 1<<16)}
		if tr != nil {
			l.outcomes = make(map[uint64]outcome)
		}
		logs[c] = l
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer hc.CloseIdleConnections()
			urls := map[query]string{}
			var body service.SolveBody
			for time.Now().Before(deadline) {
				q := next(c)
				url, ok := urls[q]
				if !ok {
					url = fmt.Sprintf("%s/solve?n=%d&k=%d", s.base, q.n, q.k)
					if q.budget != 0 {
						url += "&budget=" + strconv.Itoa(q.budget)
					}
					urls[q] = url
				}
				body = service.SolveBody{}
				code, id, lat, err := get(hc, tr, url, &body)
				l.replies++
				l.attempted++
				out := outFail
				if err == nil {
					out, err = classify(q, code, &body)
				}
				if err == nil && requireHit && out != outHit {
					out, err = outFail, fmt.Errorf("(%d,%d): not a cache hit", q.n, q.k)
				}
				switch out {
				case outHit:
					l.hitMs = append(l.hitMs, lat)
				case outSuspend:
					l.suspendMs = append(l.suspendMs, lat)
				case outFail:
					l.failed++
					if len(l.problems) < 10 {
						l.problems = append(l.problems, err.Error())
					}
				}
				if tr != nil {
					l.outcomes[id] = out
				}
			}
		}(c)
	}
	wg.Wait()
	return loadResult{logs: logs, elapsed: time.Since(start)}
}

// get sends one GET and decodes the JSON body. The latency covers
// sending the request and reading the whole response, not decoding.
func get(hc *http.Client, tr *tracer, url string, body *service.SolveBody) (code int, id uint64, latMs float64, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if tr != nil {
		id = tr.ids.Add(1)
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, id, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	latMs = float64(end.Sub(start)) / float64(time.Millisecond)
	if tr != nil {
		tr.add(span{ID: id, Name: "client.request", Start: start.UnixNano(), End: end.UnixNano()})
	}
	if err != nil {
		return resp.StatusCode, id, latMs, err
	}
	return resp.StatusCode, id, latMs, json.Unmarshal(raw, body)
}

// merge folds the client logs into the run's counts and returns the
// pooled latency samples.
func (r *run) merge(lr loadResult) (hitMs, suspendMs []float64, replies int64) {
	for _, l := range lr.logs {
		r.rep.attempted += l.attempted
		r.rep.failed += l.failed
		for _, p := range l.problems {
			r.problem("%s", p)
		}
		hitMs = append(hitMs, l.hitMs...)
		suspendMs = append(suspendMs, l.suspendMs...)
		replies += l.replies
	}
	return hitMs, suspendMs, replies
}

// runHits: a warm store holding the band, every request a cache hit.
func runHits(r *run) error {
	var srv *server
	err := r.timeSetup(5, func(i int) error {
		var err error
		if srv, err = startServer(filepath.Join(r.dir, fmt.Sprintf("store-%d", i)), r.tr); err != nil {
			return err
		}
		r.warmBand(srv)
		return nil
	}, func(int) error { return srv.close() })
	if err != nil {
		return err
	}
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(r.seed*1_000_003 + int64(c)))
	}
	next := func(c int) query {
		n := 3 + rngs[c].Intn(7)
		return query{n: n, k: 1 + rngs[c].Intn(n-1)}
	}
	return r.serve(srv, true, next)
}

// runMix: a cold store and cmd/mcsim's seeded query mix.
func runMix(r *run) error {
	var srv *server
	err := r.timeSetup(setupRepeats, func(int) error {
		var err error
		srv, err = startServer(filepath.Join(r.dir, "store"), r.tr)
		return err
	}, func(int) error { return srv.close() })
	if err != nil {
		return err
	}
	qs := sampleQueryMix(r.seed, 1<<16)
	var idx atomic.Int64
	next := func(int) query { return qs[int(idx.Add(1)-1)%len(qs)] }
	return r.serve(srv, false, next)
}

// serve runs the timed closed loop against srv, reports the end-to-end
// metrics and, when traced, the service and journal layers; it closes
// srv. hitsOnly marks the hits workload: every reply must be a cache
// hit, and there are no suspensions to report. latency_p50_ms is the
// cache hits' latency; mix also prints its hit p99 and suspension p50,
// which BENCHMARK.json does not declare, as text lines.
func (r *run) serve(srv *server, hitsOnly bool, next func(int) query) error {
	before, fsBefore := srv.svc.MetricsSnapshot(), srv.fsCounts()
	lr := srv.closedLoop(r.seconds, r.tr, hitsOnly, next)
	after, fsAfter := srv.svc.MetricsSnapshot(), srv.fsCounts()
	hitMs, suspendMs, replies := r.merge(lr)

	var direct []float64
	if r.tr != nil {
		direct = directHits(srv.svc)
	}
	if err := srv.close(); err != nil {
		return err
	}

	r.note("replies: %d in %.3f s; hit samples: %d; suspend samples: %d", replies, lr.elapsed.Seconds(), len(hitMs), len(suspendMs))
	r.e2e("ok_share", r.okShare(), "ratio")
	r.e2e("peak_rss_mb", peakRSSMB(), "MB")
	r.e2e("throughput_per_s", float64(replies)/lr.elapsed.Seconds(), "1/s")
	r.pct("latency_p50_ms", hitMs, 0.50, "ms")
	if !hitsOnly {
		r.textPct("hit_p99_ms", hitMs, 0.99, "ms")
		r.textPct("suspend_p50_ms", suspendMs, 0.50, "ms")
	}
	if r.tr != nil {
		r.layerPct("client.hit_p99_ms", hitMs, 0.99, "ms")
		r.layerHTTP(lr, direct)
		r.layerServiceCore(before, after)
		r.layerJournal(fsAfter.sub(fsBefore), 1)
	}
	return nil
}

// directHits times Service.Solve on warm band keys, without HTTP.
func directHits(svc *service.Service) []float64 {
	keys := bandKeys()
	out := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		key := keys[i%len(keys)]
		start := time.Now()
		resp := svc.Solve(context.Background(), service.Request{Instance: feasibility.Instance{N: key.n, K: key.k}})
		d := time.Since(start)
		if resp.Cached {
			out = append(out, float64(d)/float64(time.Microsecond))
		}
	}
	return out
}

// layerHTTP reports the HTTP layer from the client and handler spans.
func (r *run) layerHTTP(lr loadResult, direct []float64) {
	outcomes := map[uint64]outcome{}
	for _, l := range lr.logs {
		for id, out := range l.outcomes {
			outcomes[id] = out
		}
	}
	spans := r.tr.snapshot()
	clientSpans := map[uint64]span{}
	for _, sp := range spans {
		if sp.Name == "client.request" {
			clientSpans[sp.ID] = sp
		}
	}
	var handlerHitUs, transportHitUs, handlerSuspendMs []float64
	for _, sp := range spans {
		if sp.Name != "service.handler" {
			continue
		}
		switch outcomes[sp.Parent] {
		case outHit:
			handlerHitUs = append(handlerHitUs, float64(sp.dur())/float64(time.Microsecond))
			if c, ok := clientSpans[sp.Parent]; ok {
				transportHitUs = append(transportHitUs, float64(selfTime(c, []span{sp}))/float64(time.Microsecond))
			}
		case outSuspend:
			handlerSuspendMs = append(handlerSuspendMs, float64(sp.dur())/float64(time.Millisecond))
		}
	}
	r.layerPct("service.handler_hit_us_p50", handlerHitUs, 0.50, "us")
	r.layerPct("service.handler_hit_us_p99", handlerHitUs, 0.99, "us")
	r.layerPct("service.transport_hit_us_p50", transportHitUs, 0.50, "us")
	r.layerPct("service.direct_hit_us_p50", direct, 0.50, "us")
	r.layerPct("service.handler_suspend_ms_p50", handlerSuspendMs, 0.50, "ms")
}

// layerServiceCore reports the service core's counters over the timed
// phase, its solve-latency reservoir and the store's size at the end.
func (r *run) layerServiceCore(before, after service.Snapshot) {
	count := func(name string, a, b int64) { r.layer(name, float64(b-a), "count") }
	count("service.cache_hits", before.CacheHits, after.CacheHits)
	count("service.cache_misses", before.CacheMisses, after.CacheMisses)
	count("service.deduped", before.Deduped, after.Deduped)
	count("service.solves_started", before.SolvesStarted, after.SolvesStarted)
	count("service.suspended", before.Suspended, after.Suspended)
	count("service.resumed_drains", before.ResumedDrains, after.ResumedDrains)
	count("service.checkpoints_journaled", before.Checkpoints, after.Checkpoints)
	count("service.rejected", before.Rejected, after.Rejected)
	count("service.shed", before.Shed, after.Shed)
	r.layer("service.solve_ms_p50", after.SolveLatencyMsP50, "ms")
	r.layer("service.solve_ms_p90", after.SolveLatencyMsP90, "ms")
	r.layer("service.store_records", float64(after.JournalRecords), "count")
	r.layer("service.store_mb", float64(after.JournalBytes)/1e6, "MB")
}
