package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"chipmunk/internal/lease"
)

// wakeWithin bounds how long a held lease request may take to answer after
// the event that releases it.
const wakeWithin = 50 * time.Millisecond

// twoShardCoordinator serves a 2-shard campaign (8 workloads in shards of 4)
// on a loopback listener.
func twoShardCoordinator(t *testing.T, ttl time.Duration) (*Coordinator, *Server) {
	t.Helper()
	spec := testSpec()
	spec.Max = 8
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	if n := coord.Info().Shards; n != 2 {
		t.Fatalf("want a 2-shard campaign, got %d shards", n)
	}
	srv, err := ListenAndServe("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	return coord, srv
}

// heldLease is one lease request in flight over the wire.
type heldLease struct {
	done chan struct{}
	resp LeaseResponse
	err  error
	at   time.Time // when the answer arrived
}

// requestLease posts a lease request for worker and returns at once; the
// answer lands in the returned heldLease.
func requestLease(ctx context.Context, addr, worker, hash string) *heldLease {
	h := &heldLease{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		body, _ := json.Marshal(LeaseRequest{Worker: worker, SuiteHash: hash})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+PathLease, bytes.NewReader(body))
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
	case <-time.After(lease.HoldCap + time.Second):
		t.Fatal("held lease request never answered")
	}
	if h.err != nil {
		t.Fatalf("held lease request: %v", h.err)
	}
	return h.at.Sub(t0)
}

// leaseBoth grants both shards in-process, leaving nothing pending.
func leaseBoth(t *testing.T, coord *Coordinator) {
	t.Helper()
	hash := coord.Info().SuiteHash
	for _, w := range []string{"a", "b"} {
		if l, err := coord.Lease(LeaseRequest{Worker: w, SuiteHash: hash}); err != nil || l.Status != LeaseGranted {
			t.Fatalf("lease to %s: %+v, %v", w, l, err)
		}
	}
}

// TestHeldLeaseWakesOnStateChange: a held lease request is answered within
// wakeWithin of the change that resolves it — a failed dispatch attempt
// that frees a shard (grant), and the credit that completes the campaign
// (LeaseDone).
func TestHeldLeaseWakesOnStateChange(t *testing.T) {
	coord, srv := twoShardCoordinator(t, 0)
	defer coord.Close()
	defer srv.Close()
	hash := coord.Info().SuiteHash
	leaseBoth(t, coord)

	h := requestLease(context.Background(), srv.Addr(), "c", hash)
	h.mustBeHeld(t)
	t0 := time.Now()
	if _, err := coord.Credit(&ShardPayload{Shard: 0, Worker: "a", SuiteHash: hash, Err: "engine error"}); err != nil {
		t.Fatal(err)
	}
	if d := h.answeredBy(t, t0); d > wakeWithin {
		t.Errorf("failed attempt woke the held request after %v, want <= %v", d, wakeWithin)
	}
	if h.resp.Status != LeaseGranted || h.resp.Shard != 0 {
		t.Fatalf("held request got %+v, want a grant of the freed shard 0", h.resp)
	}

	h = requestLease(context.Background(), srv.Addr(), "d", hash)
	h.mustBeHeld(t)
	for _, p := range []*ShardPayload{
		{Shard: 1, Worker: "b", SuiteHash: hash, Workloads: 4},
		{Shard: 0, Worker: "c", SuiteHash: hash, Workloads: 4},
	} {
		t0 = time.Now()
		if _, err := coord.Credit(p); err != nil {
			t.Fatal(err)
		}
	}
	if d := h.answeredBy(t, t0); d > wakeWithin {
		t.Errorf("completion woke the held request after %v, want <= %v", d, wakeWithin)
	}
	if h.resp.Status != LeaseDone {
		t.Fatalf("held request got %+v at completion, want LeaseDone", h.resp)
	}
}

// TestHeldLeaseWakesAtDeadline: with no credit coming, a held request wakes
// at the earliest lease deadline, reclaims the expired shard and receives
// it — expiry is not delayed by the hold.
func TestHeldLeaseWakesAtDeadline(t *testing.T) {
	const ttl = 300 * time.Millisecond
	coord, srv := twoShardCoordinator(t, ttl)
	defer coord.Close()
	defer srv.Close()
	hash := coord.Info().SuiteHash
	granted := time.Now()
	leaseBoth(t, coord)

	h := requestLease(context.Background(), srv.Addr(), "c", hash)
	d := h.answeredBy(t, granted)
	if h.resp.Status != LeaseGranted || h.resp.Shard != 0 {
		t.Fatalf("held request got %+v, want the reclaimed shard 0", h.resp)
	}
	if d < ttl || d > ttl+wakeWithin+100*time.Millisecond {
		t.Errorf("reclaimed shard granted %v after the original lease, want just past the %v TTL", d, ttl)
	}
	if st := coord.Stats(); st.Redispatched == 0 {
		t.Errorf("expired lease not counted as re-dispatched: %+v", st)
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
			coord, srv := twoShardCoordinator(t, 0)
			defer coord.Close()
			hash := coord.Info().SuiteHash
			leaseBoth(t, coord)
			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			h := requestLease(ctx, srv.Addr(), "c", hash)
			h.mustBeHeld(t)
			t0 := time.Now()
			tc.release(coord, hangUp)
			if tc.name != "hang-up" {
				if d := h.answeredBy(t, t0); d > wakeWithin || h.resp.Status != LeaseDone {
					t.Fatalf("held request got %+v after %v, want LeaseDone within %v", h.resp, d, wakeWithin)
				}
			} else {
				<-h.done
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("Server.Close waited on a released hold: %v", err)
			}
			if d := time.Since(t0); d > closeGrace/2 {
				t.Errorf("release + Server.Close took %v", d)
			}
		})
	}
}

// TestHeldLeaseSurvivesLeaseWireFaults: heavy drop, delay and truncate
// faults on the lease path alone — where requests are now held — still
// converge to the serial census.
func TestHeldLeaseSurvivesLeaseWireFaults(t *testing.T) {
	_, _, want := baseline(t)
	coord, err := NewCoordinator(CoordinatorConfig{Spec: testSpec(), ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	faulty, stats := WrapWireFaults(coord, &WireFaultConfig{
		Seed: 5, DropOneInN: 3, DelayOneInN: 2, TruncateOneInN: 4, MaxDelay: 20 * time.Millisecond,
	})
	mux := http.NewServeMux()
	mux.Handle("/", coord)
	mux.Handle(PathLease, faulty)
	srv, err := ListenAndServe("127.0.0.1:0", mux)
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
	census, viol, err := coord.Wait(context.Background())
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
	if got := Fingerprint(census, viol); got != want {
		t.Fatalf("census diverges under lease-path faults:\n--- serial ---\n%s--- faulty ---\n%s", want, got)
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
	coord, srv := twoShardCoordinator(t, 0)
	exited := make([]chan error, 2)
	for i := range exited {
		exited[i] = make(chan error, 1)
		go func(i int) {
			exited[i] <- RunWorker(context.Background(), WorkerConfig{Addr: srv.Addr(), ID: fmt.Sprintf("w%d", i)})
		}(i)
	}
	if _, _, err := coord.Wait(context.Background()); err != nil {
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
			t.Fatalf("worker %d still running 1s after the campaign completed", i)
		}
	}
}
