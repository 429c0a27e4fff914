package lease

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"chipmunk/internal/obs"
)

// testJob is a minimal adapter: one table of n units, leased lowest first.
type testJob struct {
	t      Table
	giveUp []int
}

func (j *testJob) Pick(time.Time) (*Table, int, bool) {
	i, ok := j.t.FirstPending(len(j.t.Slots))
	return &j.t, i, ok
}

func (j *testJob) Finished() bool { return j.t.Resolved() }

// testResult is a minimal result body.
type testResult struct {
	Hash, Worker, Err, Sum string
	ID                     int
}

func (r *testResult) Claim() Claim {
	return Claim{Hash: r.Hash, Kind: "unit", ID: r.ID, Worker: r.Worker, Err: r.Err, Sum: r.Sum}
}

func (r *testResult) Checksum() string {
	cp := *r
	cp.Sum = ""
	return Checksum(&cp)
}

func (r *testResult) Seal() { r.Sum = r.Checksum() }

type logRec struct {
	Type string `json:"type"`
	ID   int    `json:"id"`
}

func newTestEngine(t *testing.T, n int, ttl time.Duration, retries int) (*Engine, *testJob) {
	t.Helper()
	j := &testJob{t: Table{Kind: "unit", Slots: make([]Slot, n)}}
	j.t.GiveUp = func(i int) (obs.Event, any) {
		j.giveUp = append(j.giveUp, i)
		return obs.Event{Type: "unit-give-up", Rank: i}, logRec{Type: "give-up", ID: i}
	}
	e := NewEngine(Config{Hash: "h", HashName: "test", TTL: ttl, Retries: retries, Tables: []*Table{&j.t}, Job: j})
	return e, j
}

type grant struct {
	status string
	id     int
}

func respond(status string, _ *Table, i int) grant { return grant{status, i} }

func mustLease(t *testing.T, e *Engine, worker string) grant {
	t.Helper()
	g, err := Lease(e, worker, "h", respond)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRegrantHeldUnit: a worker that asks while holding a unit gets that
// unit back with a fresh deadline; no second unit is leased, and nothing
// counts as re-dispatched.
func TestRegrantHeldUnit(t *testing.T) {
	e, j := newTestEngine(t, 3, time.Minute, 0)
	if g := mustLease(t, e, "a"); g != (grant{"", 0}) {
		t.Fatalf("first lease: %+v", g)
	}
	first := j.t.Slots[0].Deadline
	time.Sleep(2 * time.Millisecond)
	if g := mustLease(t, e, "a"); g != (grant{"", 0}) {
		t.Fatalf("re-grant: %+v, want unit 0 again", g)
	}
	if !j.t.Slots[0].Deadline.After(first) {
		t.Fatal("re-grant kept the old deadline")
	}
	if n := j.t.Count(Leased); n != 1 {
		t.Fatalf("%d units leased, want 1", n)
	}
	if c := e.Counters(); c.Redispatched != 0 {
		t.Fatalf("re-grant counted as re-dispatch: %+v", c)
	}
}

// TestRetryThenGiveUp: each error result is one failed attempt; the unit is
// re-queued until its budget is spent, then given up — journaled through
// the table hook, appended to the log, and answered Quarantined.
func TestRetryThenGiveUp(t *testing.T) {
	e, j := newTestEngine(t, 1, time.Minute, 2)
	path := filepath.Join(t.TempDir(), "log")
	log, err := OpenLog(path, logRec{Type: "header"})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach(log)
	for attempt := 1; attempt <= 2; attempt++ {
		if g := mustLease(t, e, "a"); g != (grant{"", 0}) {
			t.Fatalf("attempt %d lease: %+v", attempt, g)
		}
		cr, err := e.Credit(&testResult{Hash: "h", Worker: "a", ID: 0, Err: "boom"}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gaveUp := attempt == 2; cr.Quarantined != gaveUp || cr.Done != gaveUp {
			t.Fatalf("attempt %d: %+v", attempt, cr)
		}
	}
	if j.t.Slots[0].State != GivenUp || len(j.giveUp) != 1 {
		t.Fatalf("unit not given up once: %+v, hooks %v", j.t.Slots[0], j.giveUp)
	}
	if c := e.Counters(); c.Redispatched != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if g := mustLease(t, e, "b"); g.status != Done {
		t.Fatalf("lease after give-up: %+v, want done", g)
	}
	// A late healthy result for a given-up unit is discarded.
	if cr, _ := e.Credit(&testResult{Hash: "h", Worker: "a", ID: 0}, nil, nil); cr.Accepted || !cr.Quarantined {
		t.Fatalf("late result: %+v", cr)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []logRec
	skipped, err := LoadLog(path, func(r logRec) bool { recs = append(recs, r); return true })
	if err != nil || skipped != 0 || len(recs) != 2 || recs[1] != (logRec{Type: "give-up"}) {
		t.Fatalf("log: %+v skipped=%d err=%v", recs, skipped, err)
	}
}

// TestReclaimAndCreditOnce: an expired lease is reclaimed by the next lease
// request and re-granted; the slow holder's late result is a duplicate.
func TestReclaimAndCreditOnce(t *testing.T) {
	e, j := newTestEngine(t, 1, 20*time.Millisecond, 0)
	mustLease(t, e, "slow")
	var deadline time.Time
	e.Locked(func() { deadline = e.nextDeadlineLocked() })
	if !deadline.Equal(j.t.Slots[0].Deadline) {
		t.Fatalf("next deadline %v, want the lease's %v", deadline, j.t.Slots[0].Deadline)
	}
	time.Sleep(30 * time.Millisecond)
	if g := mustLease(t, e, "fast"); g != (grant{"", 0}) {
		t.Fatalf("expired unit not re-granted: %+v", g)
	}
	apply := func(int) any { return nil }
	if cr, err := e.Credit(&testResult{Hash: "h", Worker: "fast"}, nil, apply); err != nil || !cr.Accepted || !cr.Done {
		t.Fatalf("credit: %+v, %v", cr, err)
	}
	if cr, err := e.Credit(&testResult{Hash: "h", Worker: "slow"}, nil, apply); err != nil || cr.Accepted || !cr.Duplicate {
		t.Fatalf("late credit: %+v, %v", cr, err)
	}
	c := e.Counters()
	if c.Redispatched != 1 || c.Duplicates != 1 || c.PerWorker["fast"] != 1 || c.PerWorker["slow"] != 0 {
		t.Fatalf("counters: %+v", c)
	}
	if _, err := e.Credit(&testResult{Hash: "x", Worker: "w"}, nil, apply); err == nil {
		t.Fatal("foreign fingerprint credited")
	}
	if _, err := e.Credit(&testResult{Hash: "h", Worker: "w", ID: 7}, nil, apply); err == nil {
		t.Fatal("out-of-range unit credited")
	}
	if c := e.Counters(); c.Rejected != 2 {
		t.Fatalf("rejections not counted: %+v", c)
	}
}

// TestWaitDrainsAtDeadline: an interrupted Wait drains; with one lease out
// and no worker left to report it, Wait returns at that lease's deadline
// (not on a polling tick), reclaiming it, with ctx's error.
func TestWaitDrainsAtDeadline(t *testing.T) {
	const ttl = 150 * time.Millisecond
	e, j := newTestEngine(t, 2, ttl, 0)
	mustLease(t, e, "gone")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	failed, interrupted := e.Wait(ctx)
	if failed != nil || !errors.Is(interrupted, context.Canceled) {
		t.Fatalf("Wait: failed=%v interrupted=%v", failed, interrupted)
	}
	if d := time.Since(t0); d < ttl-20*time.Millisecond || d > ttl+100*time.Millisecond {
		t.Fatalf("Wait returned after %v, want about the %v lease deadline", d, ttl)
	}
	if j.t.Slots[0].State != Pending {
		t.Fatalf("expired lease not reclaimed: %+v", j.t.Slots[0])
	}
	if g := mustLease(t, e, "late"); g.status != Done {
		t.Fatalf("drained engine granted %+v", g)
	}
}

// TestHeartbeatExtendsHolderOnly: only the live holder extends its lease;
// the piggybacked progress never regresses.
func TestHeartbeatExtendsHolderOnly(t *testing.T) {
	e, j := newTestEngine(t, 1, time.Minute, 0)
	mustLease(t, e, "a")
	if hb, err := e.Heartbeat("h", "unit", 0, "a", 9); err != nil || !hb.Extended {
		t.Fatalf("holder: %+v, %v", hb, err)
	}
	if hb, err := e.Heartbeat("h", "unit", 0, "a", 4); err != nil || !hb.Extended || j.t.Slots[0].Progress != 9 {
		t.Fatalf("lagging progress: %+v, %v, progress %d", hb, err, j.t.Slots[0].Progress)
	}
	if hb, err := e.Heartbeat("h", "unit", 0, "b", 1); err != nil || hb.Extended {
		t.Fatalf("stranger: %+v, %v", hb, err)
	}
	if _, err := e.Heartbeat("h", "other", 0, "a", 1); err == nil {
		t.Fatal("unknown unit kind accepted")
	}
	if c := e.Counters(); c.Heartbeats != 2 {
		t.Fatalf("counters: %+v", c)
	}
}
