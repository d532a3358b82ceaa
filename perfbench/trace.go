package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ringrobots/internal/faultfs"
)

// span is one timed interval at a layer boundary. Times are Unix
// nanoseconds so spans written by worker processes merge with the
// coordinator's.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. cur is the innermost
// open span of the run's sequential code path, used as the parent of
// spans recorded by seams that cannot see their caller (the journal
// file wrapper).
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Uint64
	cur   atomic.Uint64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// begin opens a span under parent and makes it the current one; the
// returned function closes it and restores the previous current span.
func (t *tracer) begin(name string, parent uint64) (id uint64, end func()) {
	id = t.ids.Add(1)
	start := time.Now().UnixNano()
	prev := t.cur.Swap(id)
	return id, func() {
		t.add(span{ID: id, Parent: parent, Name: name, Start: start, End: time.Now().UnixNano()})
		t.cur.Store(prev)
	}
}

func (t *tracer) add(sp ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp...)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints, per span name, the count and the total and self
// time: where the traced run's time went, layer by layer.
func printSelfTimes(w io.Writer, spans []span) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	kids := childrenOf(spans)
	by := map[string]*agg{}
	for _, sp := range spans {
		a := by[sp.Name]
		if a == nil {
			a = &agg{}
			by[sp.Name] = a
		}
		a.n++
		a.total += sp.dur()
		a.self += selfTime(sp, kids[sp.ID])
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", name, a.n,
			float64(a.total)/float64(time.Millisecond), float64(a.self)/float64(time.Millisecond))
	}
}

// selfTime is the parent's duration minus the part of it that the
// children's intervals cover; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			covered += v.hi - reach
			reach = v.hi
		}
	}
	return parent.dur() - time.Duration(covered)
}

// childrenOf indexes spans by parent id.
func childrenOf(spans []span) map[uint64][]span {
	kids := make(map[uint64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	return kids
}

// spanHeader carries the client span id to the handler middleware.
const spanHeader = "X-Perfbench-Span"

// middleware records a handler span around next, linked to the client
// span named by the request's spanHeader.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		start := time.Now().UnixNano()
		next.ServeHTTP(w, req)
		t.add(span{ID: t.ids.Add(1), Parent: parent, Name: "service.handler", Start: start, End: time.Now().UnixNano()})
	})
}

// fsCounts are the journal layer's file operations, counted at the
// faultfs seam.
type fsCounts struct {
	Writes     int64 `json:"writes"`
	WriteBytes int64 `json:"write_bytes"`
	WriteNs    int64 `json:"write_ns"`
	Fsyncs     int64 `json:"fsyncs"`
	FsyncNs    int64 `json:"fsync_ns"`
	Renames    int64 `json:"renames"`
}

func (c *fsCounts) add(o fsCounts) {
	c.Writes += o.Writes
	c.WriteBytes += o.WriteBytes
	c.WriteNs += o.WriteNs
	c.Fsyncs += o.Fsyncs
	c.FsyncNs += o.FsyncNs
	c.Renames += o.Renames
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{c.Writes - o.Writes, c.WriteBytes - o.WriteBytes, c.WriteNs - o.WriteNs,
		c.Fsyncs - o.Fsyncs, c.FsyncNs - o.FsyncNs, c.Renames - o.Renames}
}

// layerJournal reports the journal layer's metrics, divided by per (the
// number of drains a drain workload ran; 1 for the serve workloads).
func (r *run) layerJournal(c fsCounts, per float64) {
	r.layer("journal.writes", float64(c.Writes)/per, "count")
	r.layer("journal.write_mb", float64(c.WriteBytes)/1e6/per, "MB")
	r.layer("journal.write_ms", float64(c.WriteNs)/1e6/per, "ms")
	r.layer("journal.fsyncs", float64(c.Fsyncs)/per, "count")
	r.layer("journal.fsync_ms", float64(c.FsyncNs)/1e6/per, "ms")
	r.layer("journal.renames", float64(c.Renames)/per, "count")
}

// countingFS wraps the real filesystem, counting and timing the
// journal's writes, fsyncs and renames and recording a span for each
// under the tracer's current span.
type countingFS struct {
	faultfs.OS
	tr *tracer
	mu sync.Mutex
	c  fsCounts
}

func newCountingFS(tr *tracer) *countingFS { return &countingFS{tr: tr} }

func (fs *countingFS) counts() fsCounts {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.c
}

func (fs *countingFS) note(name string, start time.Time, bytes int64) {
	end := time.Now()
	ns := end.Sub(start).Nanoseconds()
	fs.mu.Lock()
	switch name {
	case "journal.write":
		fs.c.Writes++
		fs.c.WriteBytes += bytes
		fs.c.WriteNs += ns
	case "journal.fsync":
		fs.c.Fsyncs++
		fs.c.FsyncNs += ns
	case "journal.rename":
		fs.c.Renames++
	}
	fs.mu.Unlock()
	fs.tr.add(span{ID: fs.tr.ids.Add(1), Parent: fs.tr.cur.Load(), Name: name, Start: start.UnixNano(), End: end.UnixNano()})
}

func (fs *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (fs *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := fs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (fs *countingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := fs.OS.Rename(oldpath, newpath)
	fs.note("journal.rename", start, 0)
	return err
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.note("journal.write", start, int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.note("journal.fsync", start, 0)
	return err
}
