package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/campaign"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// wakeWithin bounds how long a held lease request may take to answer after
// the event that releases it.
const wakeWithin = 50 * time.Millisecond

// twoRoundSpec is a 2-unit soak: two 15-exec rounds, each its own
// generation, so round 1 waits at the barrier until round 0 folds.
func twoRoundSpec() campaign.Spec {
	return Normalize(campaign.Spec{
		FS: "nova", Bugs: "4,5", Cap: 2,
		Fuzz: true, FuzzSeed: 11,
		BudgetExecs: 30, RoundExecs: 15, GenRounds: 1, MinExecs: 20,
	})
}

// twoRoundCoordinator serves twoRoundSpec on a loopback listener with round
// 0 already leased to worker "a", so a lease request from anyone else
// waits at the generation barrier.
func twoRoundCoordinator(t *testing.T, ttl time.Duration) (*Coordinator, *campaign.Server) {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{Spec: twoRoundSpec(), LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	l, err := coord.Lease(FuzzLeaseRequest{Worker: "a", SpecHash: coord.Info().SuiteHash})
	if err != nil || l.Status != LeaseRound || l.Round != 0 {
		t.Fatalf("lease round 0: %+v, %v", l, err)
	}
	srv, err := campaign.ListenAndServe("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	return coord, srv
}

// heldLease is one lease request in flight over the wire.
type heldLease struct {
	done chan struct{}
	resp FuzzLeaseResponse
	err  error
	at   time.Time // when the answer arrived
}

// requestLease posts a lease request for worker and returns at once; the
// answer lands in the returned heldLease.
func requestLease(ctx context.Context, addr, worker, hash string) *heldLease {
	h := &heldLease{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		body, _ := json.Marshal(FuzzLeaseRequest{Worker: worker, SpecHash: hash})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+PathFuzzLease, bytes.NewReader(body))
		if err != nil {
			h.err = err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			h.err = err
			return
		}
		defer resp.Body.Close()
		h.err = json.NewDecoder(resp.Body).Decode(&h.resp)
		h.at = time.Now()
	}()
	return h
}

// mustBeHeld fails unless the request is still unanswered after a pause —
// a coordinator that answered LeaseWait at once would have replied by then.
func (h *heldLease) mustBeHeld(t *testing.T) {
	t.Helper()
	select {
	case <-h.done:
		t.Fatalf("lease request answered instead of held: %+v, %v", h.resp, h.err)
	case <-time.After(100 * time.Millisecond):
	}
}

// answeredBy waits for the answer and returns how long after t0 it arrived.
func (h *heldLease) answeredBy(t *testing.T, t0 time.Time) time.Duration {
	t.Helper()
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		t.Fatal("held lease request never answered")
	}
	if h.err != nil {
		t.Fatalf("held lease request: %v", h.err)
	}
	return h.at.Sub(t0)
}

// TestHeldLeaseWakesOnFold: a request held at the generation barrier is
// answered within wakeWithin of the credit whose fold opens the barrier
// (a round grant), or opens a minimization task (a minimize grant, which
// goes first).
func TestHeldLeaseWakesOnFold(t *testing.T) {
	for _, tc := range []struct {
		name  string
		viols []FuzzViolation
		want  string
	}{
		{"barrier", nil, LeaseRound},
		{"minimize", []FuzzViolation{{Kind: "atomicity-violation", FS: "nova", Prefix: "p", Workload: "w", Text: "w"}}, LeaseMinimize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, srv := twoRoundCoordinator(t, 0)
			defer coord.Close()
			defer srv.Close()
			hash := coord.Info().SuiteHash
			h := requestLease(context.Background(), srv.Addr(), "c", hash)
			h.mustBeHeld(t)
			t0 := time.Now()
			if _, err := coord.Credit(&FuzzResult{Kind: ResultRound, Worker: "a", SpecHash: hash,
				Round: 0, Execs: 15, Violations: tc.viols}); err != nil {
				t.Fatal(err)
			}
			if d := h.answeredBy(t, t0); d > wakeWithin {
				t.Errorf("fold woke the held request after %v, want <= %v", d, wakeWithin)
			}
			if h.resp.Status != tc.want {
				t.Fatalf("held request got %+v, want a %s lease", h.resp, tc.want)
			}
			if tc.want == LeaseRound && h.resp.Round != 1 {
				t.Fatalf("held request got round %d, want round 1", h.resp.Round)
			}
		})
	}
}

// TestHeldLeaseWakesAtDeadline: with no credit coming, a held request wakes
// at the earliest lease deadline, reclaims the expired round and receives
// it — expiry is not delayed by the hold.
func TestHeldLeaseWakesAtDeadline(t *testing.T) {
	const ttl = 300 * time.Millisecond
	granted := time.Now()
	coord, srv := twoRoundCoordinator(t, ttl)
	defer coord.Close()
	defer srv.Close()
	h := requestLease(context.Background(), srv.Addr(), "c", coord.Info().SuiteHash)
	d := h.answeredBy(t, granted)
	if h.resp.Status != LeaseRound || h.resp.Round != 0 {
		t.Fatalf("held request got %+v, want the reclaimed round 0", h.resp)
	}
	if d < ttl || d > ttl+wakeWithin+100*time.Millisecond {
		t.Errorf("reclaimed round granted %v after the original lease, want just past the %v TTL", d, ttl)
	}
	if st := coord.Stats(); st.Redispatched != 1 {
		t.Errorf("want the expired lease re-dispatched once: %+v", st)
	}
}

// TestHeldLeaseReleased: Drain and Close answer a held request LeaseDone at
// once, and a worker that hangs up ends its hold, so Server.Close does not
// wait it out.
func TestHeldLeaseReleased(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(coord *Coordinator, hangUp context.CancelFunc)
	}{
		{"drain", func(coord *Coordinator, _ context.CancelFunc) { coord.Drain() }},
		{"close", func(coord *Coordinator, _ context.CancelFunc) { coord.Close() }},
		{"hang-up", func(_ *Coordinator, hangUp context.CancelFunc) { hangUp() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, srv := twoRoundCoordinator(t, 0)
			defer coord.Close()
			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			h := requestLease(ctx, srv.Addr(), "c", coord.Info().SuiteHash)
			h.mustBeHeld(t)
			t0 := time.Now()
			tc.release(coord, hangUp)
			if tc.name != "hang-up" {
				if d := h.answeredBy(t, t0); d > wakeWithin || h.resp.Status != campaign.LeaseDone {
					t.Fatalf("held request got %+v after %v, want LeaseDone within %v", h.resp, d, wakeWithin)
				}
			} else {
				<-h.done
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("Server.Close waited on a released hold: %v", err)
			}
			if d := time.Since(t0); d > time.Second {
				t.Errorf("release + Server.Close took %v", d)
			}
		})
	}
}

// TestHeldLeaseSurvivesLeaseWireFaults: heavy drop, delay and truncate
// faults on the lease path alone — where requests are now held — still
// converge to the clean census.
func TestHeldLeaseSurvivesLeaseWireFaults(t *testing.T) {
	want := renderCensus(t, runSoak(t, CoordinatorConfig{Spec: fuzzTestSpec()}, 2, nil, nil).census)
	coord, err := NewCoordinator(CoordinatorConfig{Spec: fuzzTestSpec()})
	if err != nil {
		t.Fatal(err)
	}
	faulty, stats := campaign.WrapWireFaults(coord, &campaign.WireFaultConfig{
		Seed: 5, DropOneInN: 3, DelayOneInN: 2, TruncateOneInN: 4, MaxDelay: 20 * time.Millisecond,
	})
	mux := http.NewServeMux()
	mux.Handle("/", coord)
	mux.Handle(PathFuzzLease, faulty)
	srv, err := campaign.ListenAndServe("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), WorkerConfig{Addr: srv.Addr(), ID: fmt.Sprintf("w%d", i)})
		}(i)
	}
	census, err := coord.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	srv.Close()
	coord.Close()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if got := renderCensus(t, census); got != want {
		t.Fatalf("census diverged under lease-path faults:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if fs := stats(); fs.Dropped == 0 || fs.Delayed == 0 || fs.Truncated == 0 {
		t.Fatalf("lease-path faults did not all fire: %s", fs)
	}
}

// TestWorkersExitAtCompletion: once Coordinator.Wait returns, every worker
// has its LeaseDone (held requests are answered at completion), so workers
// exit promptly even when the coordinator tears its listener down right
// away — no dial-retry linger against a closed coordinator.
func TestWorkersExitAtCompletion(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Spec: twoRoundSpec()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaign.ListenAndServe("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	exited := make([]chan error, 2)
	for i := range exited {
		exited[i] = make(chan error, 1)
		go func(i int) {
			exited[i] <- RunWorker(context.Background(), WorkerConfig{Addr: srv.Addr(), ID: fmt.Sprintf("w%d", i)})
		}(i)
	}
	if _, err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	srv.Close()
	coord.Close()
	for i, ch := range exited {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		case <-time.After(time.Second - time.Since(t0)):
			t.Fatalf("worker %d still running 1s after the soak completed", i)
		}
	}
}

// TestMinimizeWatchdogJournal wedges every unit behind a 1 ns watchdog: the
// minimization task journals one "shard-watchdog" event per dispatch
// attempt, exactly like shards and rounds, and is dropped once its attempts
// are spent — the soak completes degraded, never hung.
func TestMinimizeWatchdogJournal(t *testing.T) {
	coord, srv := twoRoundCoordinator(t, 0)
	defer coord.Close()
	defer srv.Close()
	hash := coord.Info().SuiteHash
	suite, err := ace.SuiteByName("seq1")
	if err != nil {
		t.Fatal(err)
	}
	viol := FuzzViolation{Kind: "atomicity-violation", FS: "nova", Prefix: "p", Workload: "w", Text: workload.Format(suite[0])}
	if _, err := coord.Credit(&FuzzResult{Kind: ResultRound, Worker: "a", SpecHash: hash,
		Round: 0, Execs: 15, Violations: []FuzzViolation{viol}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jr := obs.NewJournal(&buf)
	if err := RunWorker(context.Background(), WorkerConfig{
		Addr: srv.Addr(), ID: "w0", Journal: jr, RoundTimeout: time.Nanosecond,
	}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if st := coord.Stats(); st.MinTasks != 1 || st.MinDropped != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournal(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
	}
	watchdogs := 0
	for _, e := range events {
		if e.Type == "shard-watchdog" && strings.Contains(e.Detail, "minimize watchdog") {
			watchdogs++
			if e.Rank != 0 || e.Worker != "w0" {
				t.Fatalf("watchdog event: %+v", e)
			}
		}
	}
	if watchdogs != lease.DefaultRetries {
		t.Fatalf("%d minimize shard-watchdog events, want %d (one per dispatch attempt)", watchdogs, lease.DefaultRetries)
	}
}
