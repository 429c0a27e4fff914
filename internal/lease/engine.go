package lease

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"chipmunk/internal/obs"
)

// HoldCap bounds how long the lease handler holds one request. At the cap
// it answers Wait and the worker asks again at once, so the cap only bounds
// how long a connection stays parked; it never delays a wake-up.
const HoldCap = 5 * time.Second

// Job is the adapter half of a coordinator. Both methods run with the
// engine lock held.
type Job interface {
	// Pick chooses the next pending unit to grant; ok is false when nothing
	// is grantable now.
	Pick(now time.Time) (t *Table, i int, ok bool)
	// Finished reports whether the job is complete.
	Finished() bool
}

// Config configures NewEngine.
type Config struct {
	// Hash is the job fingerprint every request must carry; HashName names
	// it in rejections ("suite", "spec").
	Hash, HashName string
	TTL            time.Duration // 0 = DefaultTTL
	Retries        int           // 0 = DefaultRetries
	// Tables lists the job's unit tables in lease priority order: a worker
	// that asks while holding units is re-granted the first one found.
	Tables []*Table
	Job    Job
	// Journal receives the give-up events.
	Journal *obs.Journal
	Logf    func(format string, args ...any)
}

// Counters is the engine's control-plane history.
type Counters struct {
	// Resumed counts units credited from the checkpoint at startup,
	// Redispatched failed attempts that re-queued a unit, Duplicates
	// at-most-once discards, and Rejected requests whose fingerprint or unit
	// identity did not match.
	Resumed      int
	Redispatched int
	Duplicates   int
	Rejected     int
	// BadPayloads counts result bodies rejected at the wire (truncated,
	// corrupt, checksum mismatch); Heartbeats counts granted extensions.
	BadPayloads int
	Heartbeats  int
	// PerWorker counts units credited per worker ID (checkpoint resumes
	// appear under "checkpoint").
	PerWorker map[string]int
}

// String renders the counters for a control-plane summary line.
func (c Counters) String() string {
	return fmt.Sprintf("%d resumed from checkpoint, %d re-dispatched, %d duplicates discarded, %d rejected, %d bad payloads, %d heartbeats",
		c.Resumed, c.Redispatched, c.Duplicates, c.Rejected, c.BadPayloads, c.Heartbeats)
}

// WorkerLines renders one "  worker: n units" line per worker, sorted by
// worker ID, naming the units unit.
func (c Counters) WorkerLines(unit string) []string {
	workers := make([]string, 0, len(c.PerWorker))
	for w := range c.PerWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	lines := make([]string, len(workers))
	for i, w := range workers {
		lines[i] = fmt.Sprintf("  %s: %d %s", w, c.PerWorker[w], unit)
	}
	return lines
}

// Engine is the job-independent half of a coordinator: the slot tables'
// state machine, the at-most-once credit ledger, the checkpoint log, held
// lease requests, and the drain/close lifecycle. Adapters touch their own
// state only with the engine lock held: inside Job and Table callbacks, or
// through Locked.
type Engine struct {
	hash, hashName string
	ttl            time.Duration
	retries        int
	tables         []*Table
	job            Job
	journal        *obs.Journal
	logf           func(format string, args ...any)

	mu  sync.Mutex
	ctr Counters
	// workers maps worker ID to the last moment it was heard from (lease,
	// heartbeat, or result): the dashboard's liveness column.
	workers  map[string]time.Time
	draining bool
	failed   error
	log      *Log
	// wake is closed (and cleared) by every change that can turn a Wait
	// into a grant or Done: a credit, a failed attempt, Drain, Close. A lease
	// attempt that answers Wait and the channel it waits on come from one
	// critical section, so no change can fall between them.
	wake chan struct{}

	doneOnce sync.Once
	doneCh   chan struct{}
}

// NewEngine builds an engine over cfg's tables.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		hash: cfg.Hash, hashName: cfg.HashName,
		ttl: cfg.TTL, retries: cfg.Retries,
		tables: cfg.Tables, job: cfg.Job, journal: cfg.Journal, logf: cfg.Logf,
		ctr:     Counters{PerWorker: map[string]int{}},
		workers: map[string]time.Time{},
		doneCh:  make(chan struct{}),
	}
	if e.ttl <= 0 {
		e.ttl = DefaultTTL
	}
	if e.retries <= 0 {
		e.retries = DefaultRetries
	}
	if e.logf == nil {
		e.logf = func(string, ...any) {}
	}
	return e
}

// TTL is the lease duration a grant or extension buys.
func (e *Engine) TTL() time.Duration { return e.ttl }

// Locked runs fn with the engine lock held.
func (e *Engine) Locked(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn()
}

func (e *Engine) complete() { e.doneOnce.Do(func() { close(e.doneCh) }) }

// Settle completes the job if it is already finished: call it once the
// checkpoint is replayed.
func (e *Engine) Settle() {
	e.Locked(func() {
		if e.job.Finished() {
			e.complete()
		}
	})
}

func (e *Engine) wakeLocked() {
	if e.wake != nil {
		close(e.wake)
		e.wake = nil
	}
}

func (e *Engine) wakeChanLocked() <-chan struct{} {
	if e.wake == nil {
		e.wake = make(chan struct{})
	}
	return e.wake
}

func (e *Engine) table(kind string) *Table {
	for _, t := range e.tables {
		if t.Kind == kind {
			return t
		}
	}
	return nil
}

// forLeased calls fn for every leased slot, tables in priority order.
// Tables may grow under fn; new slots are pending and not visited.
func (e *Engine) forLeased(fn func(t *Table, i int) bool) {
	for _, t := range e.tables {
		for i, n := 0, len(t.Slots); i < n; i++ {
			if t.Slots[i].State == Leased && !fn(t, i) {
				return
			}
		}
	}
}

// reclaimLocked fails every lease whose deadline has passed: with
// heartbeats extending live leases, expiry means the worker is gone.
func (e *Engine) reclaimLocked(now time.Time) {
	e.forLeased(func(t *Table, i int) bool {
		if s := &t.Slots[i]; now.After(s.Deadline) {
			e.failLocked(t, i, s.Worker, "lease expired (worker gone or stalled)")
		}
		return true
	})
}

// nextDeadlineLocked is the earliest lease deadline (zero when nothing is
// leased): the moment a waiter must re-run reclaim so an expired lease is
// reclaimed on time.
func (e *Engine) nextDeadlineLocked() time.Time {
	var next time.Time
	e.forLeased(func(t *Table, i int) bool {
		if d := t.Slots[i].Deadline; next.IsZero() || d.Before(next) {
			next = d
		}
		return true
	})
	return next
}

func (e *Engine) leasedLocked() int {
	n := 0
	for _, t := range e.tables {
		n += t.Count(Leased)
	}
	return n
}

// failLocked records one failed attempt for a leased unit — lease expiry,
// structured error result, or rejected result — and either re-queues it or,
// once its attempt budget is spent, gives it up.
func (e *Engine) failLocked(t *Table, i int, worker, cause string) {
	s := &t.Slots[i]
	s.Attempts++
	s.LastErr = cause
	s.Worker = worker
	e.wakeLocked()
	if s.Attempts < e.retries {
		e.logf("%s %d attempt %d/%d failed (worker %s): %s — re-dispatching",
			t.Kind, i, s.Attempts, e.retries, worker, cause)
		s.State = Pending
		e.ctr.Redispatched++
		return
	}
	s.State = GivenUp
	event, record := t.GiveUp(i)
	e.journal.Emit(event)
	e.appendLocked(record)
	if e.job.Finished() {
		e.complete()
	}
}

// appendLocked appends a record to the checkpoint log. A log that silently
// stops recording is worse than a failed job — resume would re-run units it
// believes missing — so a failed append fails the job.
func (e *Engine) appendLocked(record any) bool {
	if err := e.log.Append(record); err != nil {
		if e.failed == nil {
			e.failed = err
		}
		e.complete()
		return false
	}
	return true
}

// checkLocked refuses a request carrying a foreign job fingerprint.
func (e *Engine) checkLocked(hash, worker, refusal string) error {
	if hash == e.hash {
		return nil
	}
	e.ctr.Rejected++
	return fmt.Errorf("%s fingerprint mismatch: coordinator has %s, worker %q sent %s — %s",
		e.hashName, e.hash, worker, hash, refusal)
}

// unitLocked resolves the unit a request names, counting a foreign
// fingerprint or an unknown unit as a rejected request.
func (e *Engine) unitLocked(hash, kind string, id int, worker, refusal string) (*Table, error) {
	if err := e.checkLocked(hash, worker, refusal); err != nil {
		return nil, err
	}
	t := e.table(kind)
	if t != nil && id >= 0 && id < len(t.Slots) {
		return t, nil
	}
	e.ctr.Rejected++
	if t == nil {
		return nil, fmt.Errorf("unknown unit kind %q", kind)
	}
	return nil, fmt.Errorf("%s %d out of range [0,%d)", t.Kind, id, len(t.Slots))
}

func (e *Engine) stoppedLocked() bool {
	return e.draining || e.failed != nil || e.job.Finished()
}

// leaseLocked makes one lease attempt. It returns Done, Wait, or "" with
// the granted unit.
func (e *Engine) leaseLocked(worker, hash string) (string, *Table, int, error) {
	if err := e.checkLocked(hash, worker, "refusing to merge incomparable results"); err != nil {
		return "", nil, 0, err
	}
	if e.stoppedLocked() {
		return Done, nil, 0, nil
	}
	now := time.Now()
	e.reclaimLocked(now)
	e.workers[worker] = now
	// A worker asks while holding a unit only when it never heard the grant
	// (a corrupt or lost response, a replayed request): give that unit back
	// with a fresh deadline instead of leasing a second one and leaving the
	// first to expire.
	var held *Table
	var i int
	e.forLeased(func(t *Table, j int) bool {
		if t.Slots[j].Worker == worker {
			held, i = t, j
			return false
		}
		return true
	})
	t, ok := held, held != nil
	if !ok {
		t, i, ok = e.job.Pick(now)
	}
	if ok {
		s := &t.Slots[i]
		s.State, s.Worker = Leased, worker
		s.Deadline = now.Add(e.ttl)
		s.LeasedAt, s.LastBeat, s.Progress = now, now, 0
		e.logf("lease: %s %d -> %s (ttl %v)", t.Kind, i, worker, e.ttl)
		return "", t, i, nil
	}
	if e.stoppedLocked() {
		e.complete()
		return Done, nil, 0, nil
	}
	return Wait, nil, 0, nil
}

// Responder renders a lease answer: status is Done or Wait, or "" for a
// grant of slot i of table t.
type Responder[R any] func(status string, t *Table, i int) R

// attempt makes one lease attempt. wake is non-nil only for a Wait
// answer: the channel the next state change closes, taken in the same
// critical section as the answer, with the earliest lease deadline.
func attempt[R any](e *Engine, worker, hash string, respond Responder[R]) (r R, wake <-chan struct{}, deadline time.Time, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	status, t, i, err := e.leaseLocked(worker, hash)
	if err != nil {
		return r, nil, deadline, err
	}
	if status == Wait {
		wake, deadline = e.wakeChanLocked(), e.nextDeadlineLocked()
	}
	return respond(status, t, i), wake, deadline, nil
}

// Lease makes one non-blocking lease attempt for worker.
func Lease[R any](e *Engine, worker, hash string, respond Responder[R]) (R, error) {
	r, _, _, err := attempt(e, worker, hash, respond)
	return r, err
}

// Hold is Lease for the wire: a Wait is held at the coordinator and the
// attempt re-runs when state changes or the earliest lease deadline passes
// (the re-run reclaims the expired lease). It returns the first final
// answer, or the last Wait when ctx ends or after HoldCap. Holding changes
// only when a worker hears an answer, never what the answer is.
func Hold[R any](ctx context.Context, e *Engine, worker, hash string, respond Responder[R]) (R, error) {
	limit := time.NewTimer(HoldCap)
	defer limit.Stop()
	for {
		r, wake, deadline, err := attempt(e, worker, hash, respond)
		if err != nil || wake == nil || !sleep(wake, deadline, limit.C, ctx.Done()) {
			return r, err
		}
	}
}

// sleep blocks until wake closes or deadline passes (true), or until
// either stop channel fires (false). A zero deadline never passes.
func sleep(wake <-chan struct{}, deadline time.Time, stop <-chan time.Time, stop2 <-chan struct{}) bool {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-wake:
	case <-expired:
	case <-stop:
		return false
	case <-stop2:
		return false
	}
	return true
}

// Credit records result r at most once per unit. A stale or duplicate
// result is discarded; an error result is one failed attempt. vet, when
// set, checks r against its unit first (an error is a rejected request).
// apply folds a new successful result into the job and returns its
// checkpoint record. Both run with the engine lock held.
func (e *Engine) Credit(r Result, vet func(i int) error, apply func(i int) any) (CreditResponse, error) {
	cl := r.Claim()
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.unitLocked(cl.Hash, cl.Kind, cl.ID, cl.Worker, "discarding result")
	if err != nil {
		return CreditResponse{}, err
	}
	if vet != nil {
		if err := vet(cl.ID); err != nil {
			e.ctr.Rejected++
			return CreditResponse{}, err
		}
	}
	s := &t.Slots[cl.ID]
	if cl.Err != "" {
		if s.State != Leased || s.Worker != cl.Worker {
			// Stale: the lease already expired (that attempt was counted at
			// reclaim) or the unit moved on.
			e.logf("stale error result for %s %d from %s: discarded", t.Kind, cl.ID, cl.Worker)
			return CreditResponse{Duplicate: true}, nil
		}
		e.failLocked(t, cl.ID, cl.Worker, cl.Err)
		return CreditResponse{Quarantined: t.Slots[cl.ID].State == GivenUp, Done: e.job.Finished()}, nil
	}
	switch s.State {
	case GivenUp:
		// Never credit a given-up unit: its ledger entry says the unit went
		// unchecked. Re-run it with a fresh budget instead.
		e.ctr.Duplicates++
		e.logf("result for given-up %s %d from %s: discarded", t.Kind, cl.ID, cl.Worker)
		return CreditResponse{Duplicate: true, Quarantined: true}, nil
	case Credited:
		// A resurrected slow worker whose unit was re-run elsewhere: the two
		// results are identical by the determinism contract, but counting
		// both would double-credit the unit.
		e.ctr.Duplicates++
		e.logf("duplicate result for %s %d from %s: discarded", t.Kind, cl.ID, cl.Worker)
		return CreditResponse{Duplicate: true}, nil
	}
	s.State, s.Worker = Credited, cl.Worker
	e.ctr.PerWorker[cl.Worker]++
	e.workers[cl.Worker] = time.Now()
	e.wakeLocked()
	if !e.appendLocked(apply(cl.ID)) {
		return CreditResponse{Done: true}, nil
	}
	e.logf("credit: %s %d from %s (%d/%d credited)", t.Kind, cl.ID, cl.Worker, t.Count(Credited), len(t.Slots))
	done := e.job.Finished()
	if done {
		e.complete()
	}
	return CreditResponse{Accepted: true, Done: done}, nil
}

// Heartbeat extends a live lease. Extension is granted only while the unit
// is still leased to the requesting worker; otherwise the worker learns it
// lost the lease and should abandon the unit. progress is the live count
// the heartbeat piggybacks.
func (e *Engine) Heartbeat(hash, kind string, id int, worker string, progress int) (HeartbeatResponse, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.unitLocked(hash, kind, id, worker, "refusing heartbeat")
	if err != nil {
		return HeartbeatResponse{}, err
	}
	now := time.Now()
	e.workers[worker] = now
	s := &t.Slots[id]
	if s.State != Leased || s.Worker != worker || now.After(s.Deadline) {
		return HeartbeatResponse{}, nil
	}
	s.Deadline = now.Add(e.ttl)
	s.LastBeat = now
	s.Progress = max(s.Progress, progress)
	e.ctr.Heartbeats++
	return HeartbeatResponse{Extended: true, TTLNanos: int64(e.ttl)}, nil
}

// Reject records a result body rejected at the wire (truncated, corrupt,
// checksum mismatch). When the claimed unit is leased to the claimed worker
// it is one failed attempt, so the unit is re-dispatched promptly instead
// of waiting out its lease; an implausible identity only moves the
// bad-payload counter, and lease expiry covers the unit.
func (e *Engine) Reject(kind string, id int, worker, cause string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ctr.BadPayloads++
	t := e.table(kind)
	if t == nil || id < 0 || id >= len(t.Slots) {
		return
	}
	if s := &t.Slots[id]; s.State == Leased && s.Worker == worker {
		e.failLocked(t, id, worker, cause)
	}
}

// Restore credits slot i of t from the checkpoint at startup. It reports
// false when the slot is already credited.
func (e *Engine) Restore(t *Table, i int) bool {
	if t.Slots[i].State == Credited {
		return false
	}
	t.Slots[i].State = Credited
	e.ctr.Resumed++
	e.ctr.PerWorker["checkpoint"]++
	return true
}

// Attach makes log the engine's checkpoint log.
func (e *Engine) Attach(log *Log) { e.Locked(func() { e.log = log }) }

// Counters snapshots the control-plane counters.
func (e *Engine) Counters() (c Counters) {
	e.Locked(func() { c = e.CountersLocked() })
	return c
}

// CountersLocked is Counters for callers holding the lock.
func (e *Engine) CountersLocked() Counters {
	c := e.ctr
	c.PerWorker = make(map[string]int, len(e.ctr.PerWorker))
	for k, v := range e.ctr.PerWorker {
		c.PerWorker[k] = v
	}
	return c
}

// DrainingLocked reports whether the engine stopped issuing leases.
func (e *Engine) DrainingLocked() bool { return e.draining }

// WorkersLocked returns one liveness row per worker heard from, sorted by
// ID.
func (e *Engine) WorkersLocked(now time.Time) []WorkerStatus {
	var rows []WorkerStatus
	for id, seen := range e.workers {
		rows = append(rows, WorkerStatus{ID: id, LastSeenSec: now.Sub(seen).Seconds(), ShardsDone: e.ctr.PerWorker[id]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	return rows
}

// Drain stops issuing new leases; in-flight units may still report and be
// credited until their deadlines expire. Held lease requests are answered
// Done at once.
func (e *Engine) Drain() {
	e.Locked(func() {
		e.draining = true
		e.wakeLocked()
	})
}

// Wait blocks until the job completes or fails, or ctx is cancelled.
// Cancellation is the graceful path (first SIGINT): the engine drains,
// keeps crediting in-flight units to the checkpoint until they report or
// their leases expire, and returns ctx's error as interrupted. failed is the
// error that failed the job (a checkpoint append).
func (e *Engine) Wait(ctx context.Context) (failed, interrupted error) {
	select {
	case <-e.doneCh:
		return e.failure(), nil
	case <-ctx.Done():
	}
	e.Drain()
	for {
		var leased int
		var wake <-chan struct{}
		var next time.Time
		e.Locked(func() {
			e.reclaimLocked(time.Now())
			leased = e.leasedLocked()
			wake, next = e.wakeChanLocked(), e.nextDeadlineLocked()
		})
		select {
		case <-e.doneCh:
			return e.failure(), nil
		default:
		}
		if leased == 0 {
			return e.failure(), ctx.Err()
		}
		sleep(wake, next, nil, e.doneCh)
	}
}

func (e *Engine) failure() (err error) {
	e.Locked(func() { err = e.failed })
	return err
}

// Close releases the checkpoint log. A closed engine drains: it issues no
// more leases, and held lease requests are answered Done.
func (e *Engine) Close() error {
	var log *Log
	e.Locked(func() {
		log, e.log = e.log, nil
		e.draining = true
		e.wakeLocked()
	})
	return log.Close()
}
