package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/fleet"
	"chipmunk/internal/obs"
	"chipmunk/internal/persist"
	"chipmunk/internal/vfs"
)

// This file holds the wrappers the benchmark puts around the program's
// public seams. They time calls from outside and must not change what the
// program computes: fidelity_test.go checks that wrapped and unwrapped
// configurations give the same census fingerprint.

// --- core.Config.NewFS ---------------------------------------------------

// timedFS wraps a file system built by core.Config.NewFS. It stamps Mount
// and the first mutating call after Mount: on a crash state, everything the
// checker mutates is the usability probe.
type timedFS struct {
	vfs.FS
	mounted              bool
	mountStart, mountEnd time.Time
	firstMutation        time.Time
}

func (f *timedFS) timed() *timedFS { return f }

func (f *timedFS) Mount() error {
	f.mountStart = time.Now()
	err := f.FS.Mount()
	f.mountEnd = time.Now()
	f.mounted = true
	return err
}

func (f *timedFS) mutation() {
	if f.mounted && f.firstMutation.IsZero() {
		f.firstMutation = time.Now()
	}
}

func (f *timedFS) Create(path string) (vfs.FD, error) { f.mutation(); return f.FS.Create(path) }
func (f *timedFS) Mkdir(path string) error            { f.mutation(); return f.FS.Mkdir(path) }
func (f *timedFS) Rmdir(path string) error            { f.mutation(); return f.FS.Rmdir(path) }
func (f *timedFS) Link(o, n string) error             { f.mutation(); return f.FS.Link(o, n) }
func (f *timedFS) Unlink(path string) error           { f.mutation(); return f.FS.Unlink(path) }
func (f *timedFS) Rename(o, n string) error           { f.mutation(); return f.FS.Rename(o, n) }
func (f *timedFS) Truncate(p string, n int64) error   { f.mutation(); return f.FS.Truncate(p, n) }
func (f *timedFS) Fsync(fd vfs.FD) error              { f.mutation(); return f.FS.Fsync(fd) }
func (f *timedFS) Sync() error                        { f.mutation(); return f.FS.Sync() }
func (f *timedFS) Fallocate(fd vfs.FD, off, n int64) error {
	f.mutation()
	return f.FS.Fallocate(fd, off, n)
}
func (f *timedFS) Pwrite(fd vfs.FD, b []byte, off int64) (int, error) {
	f.mutation()
	return f.FS.Pwrite(fd, b, off)
}

// The optional interfaces the program type-asserts on (vfs.Capture and the
// workload executor look for XattrFS; tests look for FDCounter) must stay
// visible through the wrapper, so each combination gets its own type.
type (
	timedFDFS struct {
		*timedFS
		vfs.FDCounter
	}
	timedXattrFS struct {
		*timedFS
		vfs.XattrFS
	}
	timedXattrFDFS struct {
		*timedFS
		vfs.XattrFS
		vfs.FDCounter
	}
)

// wrapNewFS wraps a NewFS factory with timedFS, keeping XattrFS and
// FDCounter visible whenever the wrapped system implements them.
func wrapNewFS(newFS func(pm *persist.PM) vfs.FS) func(pm *persist.PM) vfs.FS {
	return func(pm *persist.PM) vfs.FS {
		inner := newFS(pm)
		t := &timedFS{FS: inner}
		x, isX := inner.(vfs.XattrFS)
		fd, isFD := inner.(vfs.FDCounter)
		switch {
		case isX && isFD:
			return timedXattrFDFS{t, x, fd}
		case isX:
			return timedXattrFS{t, x}
		case isFD:
			return timedFDFS{t, fd}
		}
		return t
	}
}

// --- core.Config.Checker -------------------------------------------------

// checkTimes accumulates what the Checker and NewFS wrappers see.
type checkTimes struct {
	states         atomic.Int64
	usabilityNanos atomic.Int64
}

// timedChecker wraps one run's Checker. Spans of the run share run; the
// state span covers mount through check, with the usability probe as a
// child of check.
type timedChecker struct {
	inner       core.Checker
	run         uint64
	tr          *tracer
	traceStates bool
	acc         *checkTimes
}

func (c *timedChecker) Name() string { return c.inner.Name() }

func (c *timedChecker) Check(fs vfs.FS, cctx *core.CheckContext) *core.Finding {
	start := time.Now()
	f := c.inner.Check(fs, cctx)
	end := time.Now()
	c.acc.states.Add(1)
	tf, ok := fs.(interface{ timed() *timedFS })
	if !ok {
		return f
	}
	t := tf.timed()
	if !t.firstMutation.IsZero() {
		c.acc.usabilityNanos.Add(end.Sub(t.firstMutation).Nanoseconds())
	}
	if c.traceStates {
		state := c.tr.newID()
		c.tr.record(span{Name: "mount", Parent: state, Run: c.run}, t.mountStart, t.mountEnd)
		check := c.tr.record(span{Name: "check", Parent: state, Run: c.run}, start, end)
		if !t.firstMutation.IsZero() {
			c.tr.record(span{Name: "usability", Parent: check, Run: c.run}, t.firstMutation, end)
		}
		c.tr.record(span{ID: state, Name: "state", Parent: c.run, Run: c.run}, t.mountStart, end)
	}
	return f
}

// preparingChecker forwards core.CrashPointPreparer: hiding it would turn
// off the engine's shared per-crash-point oracle snapshot.
type preparingChecker struct {
	*timedChecker
	core.CrashPointPreparer
}

// wrapChecker wraps a CheckerFactory (nil = the engine's default oracle
// checker). runID names the engine run a RunEnv belongs to.
func wrapChecker(inner core.CheckerFactory, tr *tracer, acc *checkTimes, runID func(core.RunEnv) uint64) core.CheckerFactory {
	if inner == nil {
		inner = core.NewOracleChecker
	}
	return func(env core.RunEnv) core.Checker {
		c := inner(env)
		tc := &timedChecker{inner: c, run: runID(env), tr: tr, acc: acc}
		tc.traceStates = tr != nil && tr.traceStates(tc.run)
		if p, ok := c.(core.CrashPointPreparer); ok {
			return preparingChecker{tc, p}
		}
		return tc
	}
}

// --- journals ------------------------------------------------------------

// runSink is the writer behind an obs.Journal. It keeps the "workload"
// events — one per engine run, carrying the run's wall time — and drops the
// rest.
type runSink struct {
	mu      sync.Mutex
	partial []byte
	runs    []obs.Event
}

var workloadType = []byte(`"type":"workload"`)

func (s *runSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.partial = append(s.partial, p...)
	rest := s.partial
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		line := rest[:i]
		rest = rest[i+1:]
		if !bytes.Contains(line, workloadType) {
			continue
		}
		var e obs.Event
		if json.Unmarshal(line, &e) == nil && e.Type == "workload" {
			s.runs = append(s.runs, e)
		}
	}
	s.partial = append(s.partial[:0], rest...)
	return len(p), nil
}

// take returns and forgets the engine runs seen so far.
func (s *runSink) take() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.runs
	s.runs = nil
	return r
}

// --- coordinator http.Handler --------------------------------------------

// wirePaths names a coordinator's lease, result and heartbeat endpoints.
type wirePaths struct{ lease, result, heartbeat string }

// wireTap wraps a coordinator's http.Handler. It times every lease and
// result call, and times each unit — shard, fuzzing round or minimization
// task — from the response that granted it to the response that credited
// it. It also measures how long each worker waits between a "wait" answer
// and its next grant or "done". Heartbeat calls are only traced.
type wireTap struct {
	next  http.Handler
	paths wirePaths
	tr    *tracer
	// parent is the span the tap's unit spans hang under.
	parent uint64
	// inflight lets finish wait for handler calls still recording: the
	// coordinator completes inside the last credit's handler, before the
	// tap has seen that handler return.
	inflight sync.WaitGroup

	mu      sync.Mutex
	grants  map[string]grant     // outstanding units by key
	waiting map[string]time.Time // worker -> start of its current wait
	st      tapStats
}

type grant struct {
	at     time.Time
	worker string
	min    bool
	id     uint64
}

// tapStats is what a wireTap measured.
type tapStats struct {
	leaseCalls, resultCalls int
	leaseNanos, resultNanos int64
	resultBytes             int64
	granted, credited       int
	// unitMs holds the latencies of shards and fuzzing rounds, minUnitMs
	// those of minimization tasks: the two kinds differ by an order of
	// magnitude, and a median over their mix would swing with the mix.
	unitMs, minUnitMs       []float64
	unitNanos, minUnitNanos int64
	waitNanos               int64
	// roundElapsedNanos sums the worker-reported compute time of credited
	// fuzzing rounds (FuzzResult.ElapsedNanos).
	roundElapsedNanos int64
}

func (a *tapStats) add(b tapStats) {
	a.leaseCalls += b.leaseCalls
	a.resultCalls += b.resultCalls
	a.leaseNanos += b.leaseNanos
	a.resultNanos += b.resultNanos
	a.resultBytes += b.resultBytes
	a.granted += b.granted
	a.credited += b.credited
	a.unitMs = append(a.unitMs, b.unitMs...)
	a.minUnitMs = append(a.minUnitMs, b.minUnitMs...)
	a.unitNanos += b.unitNanos
	a.minUnitNanos += b.minUnitNanos
	a.waitNanos += b.waitNanos
	a.roundElapsedNanos += b.roundElapsedNanos
}

func newWireTap(next http.Handler, paths wirePaths, tr *tracer, parent uint64) *wireTap {
	return &wireTap{next: next, paths: paths, tr: tr, parent: parent,
		grants: map[string]grant{}, waiting: map[string]time.Time{}}
}

// The wire messages, reduced to the fields the tap reads. Campaign and
// fleet messages share field names, so one shape serves both.
type (
	tapLeaseReq struct {
		Worker string `json:"worker"`
	}
	tapLeaseResp struct {
		Status string `json:"status"`
		Shard  int    `json:"shard"`
		Round  int    `json:"round"`
		MinID  int    `json:"min_id"`
	}
	tapResult struct {
		Worker       string `json:"worker"`
		Kind         string `json:"kind"`
		Shard        int    `json:"shard"`
		Round        int    `json:"round"`
		MinID        int    `json:"min_id"`
		ElapsedNanos int64  `json:"elapsed_ns"`
	}
	tapCredit struct {
		Accepted bool `json:"accepted"`
	}
)

// unitKey identifies a unit from a lease status or result kind.
func unitKey(kind string, shard, round, minID int) (key string, min bool) {
	switch kind {
	case fleet.LeaseRound:
		return "round/" + strconv.Itoa(round), false
	case fleet.LeaseMinimize:
		return "minimize/" + strconv.Itoa(minID), true
	}
	return "shard/" + strconv.Itoa(shard), false
}

// captureWriter passes a response through and keeps a copy of its body.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

func (t *wireTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t.inflight.Add(1)
	defer t.inflight.Done()
	switch r.URL.Path {
	case t.paths.lease:
		t.serveLease(w, r)
	case t.paths.result:
		t.serveResult(w, r)
	case t.paths.heartbeat:
		start := time.Now()
		t.next.ServeHTTP(w, r)
		t.span("handler.heartbeat", "", start, time.Now())
	default:
		t.next.ServeHTTP(w, r)
	}
}

// readBody reads a request body and puts an identical one back.
func readBody(r *http.Request) []byte {
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	return body
}

func (t *wireTap) serveLease(w http.ResponseWriter, r *http.Request) {
	var req tapLeaseReq
	_ = json.Unmarshal(readBody(r), &req) // the coordinator rejects what does not parse
	cw := &captureWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	end := time.Now()
	var resp tapLeaseResp
	_ = json.Unmarshal(cw.body.Bytes(), &resp) // error responses carry no status

	if t.tr != nil {
		t.tr.record(span{Name: "handler.lease", Worker: req.Worker}, start, end)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.leaseCalls++
	t.st.leaseNanos += end.Sub(start).Nanoseconds()
	switch resp.Status {
	case campaign.LeaseWait:
		if _, ok := t.waiting[req.Worker]; !ok {
			t.waiting[req.Worker] = end
		}
	case campaign.LeaseGranted, fleet.LeaseRound, fleet.LeaseMinimize:
		t.endWaitLocked(req.Worker, end)
		key, min := unitKey(resp.Status, resp.Shard, resp.Round, resp.MinID)
		g := grant{at: end, worker: req.Worker, min: min}
		if t.tr != nil {
			g.id = t.tr.newID()
		}
		t.grants[key] = g
		t.st.granted++
	case campaign.LeaseDone:
		t.endWaitLocked(req.Worker, end)
	}
}

func (t *wireTap) serveResult(w http.ResponseWriter, r *http.Request) {
	body := readBody(r)
	var res tapResult
	_ = json.Unmarshal(body, &res) // the coordinator rejects what does not parse
	cw := &captureWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	end := time.Now()
	var credit tapCredit
	_ = json.Unmarshal(cw.body.Bytes(), &credit)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.resultCalls++
	t.st.resultNanos += end.Sub(start).Nanoseconds()
	t.st.resultBytes += int64(len(body))
	t.spanLocked("handler.result", res.Worker, start, end)
	if !credit.Accepted {
		return
	}
	key, _ := unitKey(res.Kind, res.Shard, res.Round, res.MinID)
	g, ok := t.grants[key]
	if !ok {
		return
	}
	delete(t.grants, key)
	d := end.Sub(g.at)
	t.st.credited++
	t.st.unitNanos += d.Nanoseconds()
	if g.min {
		t.st.minUnitMs = append(t.st.minUnitMs, float64(d.Nanoseconds())/1e6)
		t.st.minUnitNanos += d.Nanoseconds()
	} else {
		t.st.unitMs = append(t.st.unitMs, float64(d.Nanoseconds())/1e6)
	}
	if res.Kind == fleet.ResultRound {
		t.st.roundElapsedNanos += res.ElapsedNanos
	}
	if t.tr != nil {
		name := "unit"
		if g.min {
			name = "unit.minimize"
		}
		t.tr.record(span{ID: g.id, Parent: t.parent, Name: name, Worker: g.worker}, g.at, end)
	}
}

func (t *wireTap) endWaitLocked(worker string, now time.Time) {
	if since, ok := t.waiting[worker]; ok {
		t.st.waitNanos += now.Sub(since).Nanoseconds()
		delete(t.waiting, worker)
	}
}

func (t *wireTap) span(name, worker string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spanLocked(name, worker, start, end)
}

// spanLocked records a handler span, parented to the unit the worker holds.
func (t *wireTap) spanLocked(name, worker string, start, end time.Time) {
	if t.tr == nil {
		return
	}
	var parent uint64
	for _, g := range t.grants {
		if g.worker == worker {
			parent = g.id
			break
		}
	}
	t.tr.record(span{Name: name, Parent: parent, Worker: worker}, start, end)
}

// finish waits for handler calls in flight, closes open waits at the
// moment the coordinator finished, and returns the tap's measurements. Call
// it after the server is closed and the workers have exited, so no new
// call can start.
func (t *wireTap) finish(at time.Time) tapStats {
	t.inflight.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	for w := range t.waiting {
		t.endWaitLocked(w, at)
	}
	return t.st
}
