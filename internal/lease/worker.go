package lease

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"chipmunk/internal/obs"
)

// CorruptLeaseBackoff is how long a worker waits before asking again after
// discarding a lease response it could not use (only in-flight corruption
// produces one). Short and fixed: the coordinator holds honest waits
// itself, so this only paces a worker talking over a damaged wire.
const CorruptLeaseBackoff = 50 * time.Millisecond

// Response is a lease answer as the worker loop sees it.
type Response interface {
	LeaseStatus() string
}

// Worker is the job-independent half of a lease worker.
type Worker struct {
	// ID names this worker in leases and per-worker stats.
	ID     string
	Client *Client
	// LeasePath, ResultPath and HeartbeatPath are the job's wire verbs.
	LeasePath, ResultPath, HeartbeatPath string
	// Timeout is the per-unit engine watchdog (<= 0: none).
	Timeout time.Duration
	Journal *obs.Journal
	Logf    func(format string, args ...any)
}

// Unit is one granted lease as the worker runs it.
type Unit struct {
	// Kind and ID name the unit; TTL is its lease duration.
	Kind string
	ID   int
	TTL  time.Duration
	// Event carries the coordinates (FS, Workload, Worker, Rank) of the
	// unit's journal events and spans. Run may add counts to it.
	Event obs.Event
	// Tracer, when set, receives the unit span and its wire child spans.
	Tracer *obs.Tracer
	// Beat builds the heartbeat body carrying the live progress count.
	Beat func(progress int) any
	// Progress reports the live count (nil = none); it is called
	// concurrently with Run.
	Progress func() int
	// Run computes the unit's result; Fail builds the error result that
	// reports msg.
	Run  func(ctx context.Context) (Result, error)
	Fail func(msg string) Result
}

// DefaultID is the worker ID used when none is configured: hostname-pid.
func DefaultID() string {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Loop asks for leases and runs them until the coordinator reports the job
// done (or draining), ctx is cancelled, or a wire call fails for good. next
// builds each lease request; accept turns a granted lease into a unit, or
// returns nil to discard a lease corrupted in flight.
//
// Fault-model contract: a worker makes no job-visible progress except by a
// credited result. Dying mid-unit lets the lease expire for re-dispatch. A
// coordinator unreachable for a whole dial budget means the job is over —
// it completed and exited, or it crashed and its checkpoint will resume —
// so the worker exits cleanly.
func Loop[L Response](ctx context.Context, w *Worker, next func() any, accept func(L) *Unit) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lstart := time.Now()
		var l L
		if err := w.Client.Post(ctx, w.LeasePath, next(), &l); err != nil {
			if errors.Is(err, ErrCoordinatorGone) {
				w.logf("worker %s: coordinator gone; assuming the job is over", w.ID)
				return nil
			}
			return fmt.Errorf("lease: %w", err)
		}
		switch l.LeaseStatus() {
		case Done:
			w.logf("worker %s: job done", w.ID)
			return nil
		case Wait:
			// The coordinator already held this request until its hold cap
			// ran out: ask again at once.
			continue
		}
		u := accept(l)
		if u == nil {
			// An unknown status, or a unit failing its geometry or checksum
			// checks, can only be a response corrupted in flight. Discard it;
			// the next request is re-granted whatever this one granted.
			w.logf("worker %s: discarding lease %q (corrupt response?)", w.ID, l.LeaseStatus())
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(CorruptLeaseBackoff):
			}
			continue
		}
		parent := u.Tracer.ID(u.Kind, u.Event.Workload, 0, u.ID)
		u.Tracer.Span("wire:lease", lstart, parent, u.Event)
		res, lost := w.run(ctx, u, parent)
		if res == nil {
			if lost {
				// The coordinator told a heartbeat this lease is gone: stop
				// burning compute on a result that would be discarded.
				w.logf("worker %s: %s %d lease lost mid-run; abandoning", w.ID, u.Kind, u.ID)
				continue
			}
			// Cancelled mid-unit: report nothing; the lease expires and the
			// unit re-runs whole.
			return ctx.Err()
		}
		res.Seal()
		rstart := u.Tracer.Begin()
		var credit CreditResponse
		err := w.Client.Post(ctx, w.ResultPath, res, &credit)
		u.Tracer.Span("wire:result", rstart, parent, u.Event)
		if err != nil {
			if errors.Is(err, ErrCoordinatorGone) {
				w.logf("worker %s: coordinator gone before the result for %s %d; the lease will expire", w.ID, u.Kind, u.ID)
				return nil
			}
			return fmt.Errorf("result: %w", err)
		}
		failed := res.Claim().Err
		switch {
		case failed != "" && credit.Quarantined:
			w.logf("worker %s: %s %d failed (%s) and was given up by the coordinator", w.ID, u.Kind, u.ID, failed)
		case failed != "":
			w.logf("worker %s: %s %d failed (%s); the coordinator will re-dispatch", w.ID, u.Kind, u.ID, failed)
		case credit.Quarantined:
			w.logf("worker %s: %s %d result discarded (already given up)", w.ID, u.Kind, u.ID)
		case credit.Duplicate:
			w.logf("worker %s: %s %d was already credited (re-dispatched past our lease)", w.ID, u.Kind, u.ID)
		case credit.Accepted:
			w.logf("worker %s: %s %d credited", w.ID, u.Kind, u.ID)
		}
		if credit.Done {
			w.logf("worker %s: job done", w.ID)
			return nil
		}
	}
}

// run executes one unit under the worker's self-defense layers — a
// watchdog deadline, panic containment, and lease heartbeats. It returns
// (nil, false) when the worker's own context was cancelled and (nil, true)
// when the coordinator declared the lease lost mid-run. Engine errors,
// contained panics and tripped watchdogs become error results: one failed
// attempt, counted toward the unit's give-up budget.
func (w *Worker) run(ctx context.Context, u *Unit, parent string) (Result, bool) {
	runCtx, cancel := context.WithCancel(ctx)
	if w.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, w.Timeout)
	}
	defer cancel()
	var lost atomic.Bool
	beats := make(chan struct{})
	go func(ev obs.Event) {
		defer close(beats)
		w.heartbeat(runCtx, u, ev, parent, func() { lost.Store(true); cancel() })
	}(u.Event)

	begin := u.Tracer.Begin()
	res, err := func() (r Result, err error) {
		// An engine panic must become an error result, never a dead worker:
		// the coordinator's attempt accounting depends on hearing about it.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("engine panic: %v", p)
			}
		}()
		return u.Run(runCtx)
	}()
	cancel()
	<-beats

	span := func(detail string) {
		e := u.Event
		e.Detail = detail
		u.Tracer.Span(u.Kind, begin, "", e)
	}
	switch {
	case err == nil:
		span("")
		return res, false
	case lost.Load():
		span("abandoned: lease lost mid-run")
		return nil, true
	case ctx.Err() != nil:
		return nil, false
	case errors.Is(runCtx.Err(), context.DeadlineExceeded):
		msg := fmt.Sprintf("%s watchdog: engine exceeded %v", u.Kind, w.Timeout)
		e := u.Event
		e.Type, e.Detail = "shard-watchdog", msg
		w.Journal.Emit(e)
		span(msg)
		return u.Fail(msg), false
	default:
		span("error: " + err.Error())
		return u.Fail(err.Error()), false
	}
}

// heartbeat extends the unit's lease every TTL/3 while it runs,
// piggybacking its live progress. A failed heartbeat POST stops the loop
// quietly (the result POST or the lease expiry decides); an explicit
// refusal means the lease is gone: journal it and call lose.
func (w *Worker) heartbeat(ctx context.Context, u *Unit, ev obs.Event, parent string, lose func()) {
	interval := u.TTL / 3
	if interval <= 0 {
		interval = DefaultTTL / 3
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for beat := 0; ; beat++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		progress := 0
		if u.Progress != nil {
			progress = u.Progress()
		}
		hstart := u.Tracer.Begin()
		var hb HeartbeatResponse
		if err := w.Client.post(ctx, w.HeartbeatPath, u.Beat(progress), &hb, interval); err != nil {
			return
		}
		e := ev
		e.Rank = beat
		u.Tracer.Span("wire:heartbeat", hstart, parent, e)
		if !hb.Extended {
			e := ev
			e.Type = "heartbeat-refused"
			e.Detail = "coordinator refused lease extension (expired, re-dispatched, or given up); abandoning " + u.Kind
			w.Journal.Emit(e)
			lose()
			return
		}
	}
}
