package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// DefaultShardTimeout is the worker-side watchdog deadline for one shard's
// engine call (-shard-timeout): a shard that exceeds it is reported to the
// coordinator as a structured error payload instead of wedging the worker
// forever. Generous — a shard is DefaultShardSize small workloads — but
// finite, because the paper's weeks-long campaigns only work if no single
// target hang can pin a fleet slot.
const DefaultShardTimeout = 10 * time.Minute

// DefaultDialBudget is the total retry budget one wire call gets before the
// worker concludes the coordinator is gone. Individual attempts back off
// exponentially with full jitter (so a restarting coordinator is not
// stampeded), and the budget bounds the whole loop.
const DefaultDialBudget = 15 * time.Second

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// ID names this worker in leases and per-worker stats (default:
	// hostname-pid).
	ID string
	// Jobs is the suite-level worker count within each shard (harness
	// WithWorkers; determinism holds for any value). Default 1.
	Jobs int
	// ShardTimeout is the per-shard engine watchdog (0 = DefaultShardTimeout,
	// negative = no watchdog). A tripped watchdog becomes a structured error
	// payload — one failed dispatch attempt on the coordinator, counting
	// toward the shard's quarantine budget.
	ShardTimeout time.Duration
	// DialBudget bounds the total retry time of each wire call
	// (0 = DefaultDialBudget). Exhausting it at handshake fails RunWorker
	// with ErrCoordinatorGone; after the handshake it means the campaign is
	// over (completed, or crashed with its checkpoint safe) and the worker
	// exits cleanly.
	DialBudget time.Duration
	// Journal, when non-nil, receives this worker's run-journal events —
	// per-worker journals are merged afterwards with journaltool -merge.
	Journal *obs.Journal
	// OnLease, when set, is called after each granted lease before the
	// shard runs — the hook kill-mid-shard tests use to die at a precise
	// point.
	OnLease func(LeaseResponse)
	// PoisonShards is the chaos hook behind -poison-shard: the engine call
	// panics for these shard ids, modeling a workload that crash-loops its
	// worker (OOM, SIGKILL, an engine bug escaping the check sandbox). The
	// worker's self-defense contains the panic into an error payload; the
	// coordinator quarantines the shard once its attempts are spent. Tests
	// and the CI chaos smoke use it; empty in production.
	PoisonShards []int
	// Logf, when set, receives one line per lease/result event.
	Logf func(format string, args ...any)

	// runEngine overrides the shard engine call in tests (slow shards,
	// hangs, deterministic failures). nil = harness.Run.
	runEngine func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error)
}

// RunWorker joins the campaign at wc.Addr and processes leases until the
// coordinator reports the campaign done (or draining), the context is
// cancelled, or an error is fatal.
//
// Fault-model contract: a worker makes no campaign-visible progress except
// by a credited result POST. Dying mid-shard — crash, SIGKILL, cancelled
// context, lost network — just lets the lease expire for re-dispatch; the
// shard is eventually credited exactly once, somewhere, with byte-identical
// payload, or quarantined once its dispatch attempts are spent. While a
// shard runs, the worker heartbeats its lease (every TTL/3) so a
// conservative lease never expires under a legitimately long shard, and the
// engine call runs under a watchdog with panic containment: a hung or
// crashing shard becomes a structured error payload, not a dead worker. A
// coordinator that becomes permanently unreachable after the handshake is
// treated as "campaign over" (it completed and exited, or it crashed and
// its checkpoint will resume): the worker exits cleanly rather than failing
// a pipeline whose state is safe either way. Unreachable at handshake is
// different — the worker never joined — and fails with ErrCoordinatorGone.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	if wc.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		wc.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if wc.Jobs == 0 {
		wc.Jobs = 1
	}
	if wc.ShardTimeout == 0 {
		wc.ShardTimeout = DefaultShardTimeout
	}
	if wc.DialBudget <= 0 {
		wc.DialBudget = DefaultDialBudget
	}
	logf := wc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := &http.Client{}

	// Handshake: fetch the spec, rebuild the suite locally, and verify the
	// fingerprint — a worker whose generator diverged must stop here, not
	// merge incomparable results.
	var info SpecInfo
	if err := getJSON(ctx, client, "http://"+wc.Addr+PathSpec, &info, wc.DialBudget); err != nil {
		return fmt.Errorf("campaign: handshake with %s: %w", wc.Addr, err)
	}
	suite, err := info.Spec.BuildSuite()
	if err != nil {
		return fmt.Errorf("campaign: handshake: %w", err)
	}
	localHash := workload.FormatSuiteHash(workload.SuiteHash(suite))
	if localHash != info.SuiteHash {
		return fmt.Errorf(
			"campaign: suite fingerprint mismatch: coordinator %s has %s for %q (%d workloads), this worker generated %s (%d workloads) — binaries/generators differ, refusing to run",
			wc.Addr, info.SuiteHash, info.Spec.Suite, info.Workloads, localHash, len(suite))
	}
	opts, err := info.Spec.Options()
	if err != nil {
		return err
	}
	if info.Spec.Stats {
		opts.Obs = obs.New()
	}
	opts.Journal = wc.Journal
	sys, cfg, err := opts.Resolve()
	if err != nil {
		return err
	}
	logf("worker %s joined campaign %s: %s suite %s (%d workloads, %d shards), fingerprint %s",
		wc.ID, info.CampaignID, sys.Name, info.Spec.Suite, info.Workloads, info.Shards, info.SuiteHash)
	// Per-shard traces key off (suite hash, shard index): any worker that
	// runs shard k of this campaign emits the same trace ID, so a
	// re-dispatched shard's attempts land in one waterfall.
	traceSeed, _ := strconv.ParseUint(info.SuiteHash, 16, 64)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lstart time.Time
		if wc.Journal != nil {
			lstart = time.Now()
		}
		var lease LeaseResponse
		err := postJSON(ctx, client, "http://"+wc.Addr+PathLease,
			LeaseRequest{Worker: wc.ID, SuiteHash: info.SuiteHash}, &lease, wc.DialBudget)
		if err != nil {
			if gone(err) {
				logf("worker %s: coordinator %s gone; assuming campaign over", wc.ID, wc.Addr)
				return nil
			}
			return fmt.Errorf("campaign: lease: %w", err)
		}
		switch lease.Status {
		case LeaseDone:
			logf("worker %s: campaign done", wc.ID)
			return nil
		case LeaseWait:
			// The coordinator already held this request until its hold cap
			// ran out: ask again at once.
			continue
		case LeaseGranted:
		default:
			// A status outside the protocol can only be a response corrupted
			// in flight (the coordinator emits three fixed strings): discard
			// and ask again after a short pause — whatever was actually
			// granted expires on its own.
			logf("worker %s: unknown lease status %q; discarding (corrupt response?)", wc.ID, lease.Status)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(CorruptLeaseBackoff):
			}
			continue
		}

		if wc.OnLease != nil {
			wc.OnLease(lease)
		}
		// Geometry check: the slice bounds are fully determined by (shard id,
		// shard size, suite length), all known since the handshake, so a lease
		// response corrupted in flight — a flipped bit in shard, start, or end
		// — cannot make the worker silently run the wrong slice. Discard it;
		// the phantom lease expires and the shard re-runs intact.
		wantStart, wantEnd := shardRange(lease.Shard, info.ShardSize, len(suite))
		if lease.Shard < 0 || lease.Shard >= info.Shards || lease.Start != wantStart || lease.End != wantEnd {
			logf("worker %s: lease shard %d [%d,%d) fails geometry check (want [%d,%d)); discarding (corrupt response?)",
				wc.ID, lease.Shard, lease.Start, lease.End, wantStart, wantEnd)
			continue
		}
		logf("worker %s: running shard %d [%d,%d)", wc.ID, lease.Shard, lease.Start, lease.End)
		// The shard's measurement trace: a "shard" span over the engine call,
		// with wire:lease/wire:heartbeat/wire:result children. These spans
		// measure the fleet (latency, retries), not the suite — they are
		// never part of the local span-determinism differential.
		tr := obs.NewTracer(wc.Journal, traceSeed, lease.Shard)
		shardSpan := tr.ID("shard", info.Spec.Suite, 0, lease.Shard)
		tr.Span("wire:lease", lstart, shardSpan,
			obs.Event{Workload: info.Spec.Suite, Worker: wc.ID, Sys: -1, Rank: lease.Shard})
		payload, abandoned := runShard(ctx, client, wc, cfg, suite, lease, info, tr, shardSpan)
		if payload == nil {
			if abandoned {
				// The coordinator told a heartbeat this lease is lost
				// (expired and re-dispatched, or quarantined): stop burning
				// compute on a result that would be discarded and lease on.
				logf("worker %s: shard %d lease lost mid-run; abandoning", wc.ID, lease.Shard)
				continue
			}
			// Cancelled mid-shard: report nothing — the lease expires and
			// the shard is re-dispatched whole.
			return ctx.Err()
		}
		payload.Sum = PayloadSum(payload)

		rstart := tr.Begin()
		var credit CreditResponse
		err = postJSON(ctx, client, "http://"+wc.Addr+PathResult, payload, &credit, wc.DialBudget)
		tr.Span("wire:result", rstart, shardSpan,
			obs.Event{Workload: info.Spec.Suite, Worker: wc.ID, Sys: -1, Rank: lease.Shard, States: payload.StatesChecked})
		if err != nil {
			if gone(err) {
				logf("worker %s: coordinator %s gone before result for shard %d; lease will expire elsewhere",
					wc.ID, wc.Addr, lease.Shard)
				return nil
			}
			return fmt.Errorf("campaign: result: %w", err)
		}
		switch {
		case payload.Err != "" && credit.Quarantined:
			logf("worker %s: shard %d failed (%s) and was QUARANTINED by the coordinator", wc.ID, lease.Shard, payload.Err)
		case payload.Err != "":
			logf("worker %s: shard %d failed (%s); coordinator will re-dispatch", wc.ID, lease.Shard, payload.Err)
		case credit.Quarantined:
			logf("worker %s: shard %d result discarded (shard already quarantined)", wc.ID, lease.Shard)
		case credit.Duplicate:
			logf("worker %s: shard %d was already credited (re-dispatched past our lease)", wc.ID, lease.Shard)
		case credit.Accepted:
			logf("worker %s: shard %d credited", wc.ID, lease.Shard)
		}
		if credit.Done {
			logf("worker %s: campaign done", wc.ID)
			return nil
		}
	}
}

// runShard executes one leased suite slice under the worker's self-defense
// layers — a watchdog deadline, panic containment, and lease heartbeats —
// and freezes the payload. Returns (nil, false) when the worker's own
// context was cancelled (nothing to report: the lease expires and the shard
// re-runs whole elsewhere) and (nil, true) when the coordinator declared
// the lease lost mid-run (abandon, lease on). Engine errors, contained
// panics, and tripped watchdogs become payloads with Err set: one failed
// dispatch attempt, counted toward the shard's quarantine budget.
func runShard(ctx context.Context, client *http.Client, wc WorkerConfig, cfg core.Config,
	suite []workload.Workload, lease LeaseResponse, info SpecInfo,
	tr *obs.Tracer, shardSpan string) (payload *ShardPayload, abandoned bool) {
	runCtx, cancel := context.WithCancel(ctx)
	if wc.ShardTimeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, wc.ShardTimeout)
	}
	defer cancel()

	// Heartbeat the lease every TTL/3 while the engine runs, piggybacking
	// the shard's live states-checked count for the coordinator's dashboard.
	// A failed heartbeat POST stops the loop quietly (the result POST or the
	// lease expiry decides); an explicit "not extended" means the lease is
	// gone — journal the refusal, cancel the engine, and abandon.
	var lost atomic.Bool
	var progress atomic.Int64
	hbDone := make(chan struct{})
	interval := time.Duration(lease.TTLNanos) / 3
	if interval <= 0 {
		interval = DefaultLeaseTTL / 3
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for beat := 0; ; beat++ {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
			}
			hstart := tr.Begin()
			var hb HeartbeatResponse
			err := postJSON(runCtx, client, "http://"+wc.Addr+PathHeartbeat,
				HeartbeatRequest{Worker: wc.ID, Shard: lease.Shard, SuiteHash: info.SuiteHash,
					StatesChecked: int(progress.Load())}, &hb, interval)
			if err != nil {
				return
			}
			tr.Span("wire:heartbeat", hstart, shardSpan,
				obs.Event{Workload: info.Spec.Suite, Worker: wc.ID, Sys: -1, Rank: beat})
			if !hb.Extended {
				wc.Journal.Emit(obs.Event{
					Type: "heartbeat-refused", FS: info.Spec.FS, Workload: info.Spec.Suite,
					Worker: wc.ID, Sys: -1, Rank: lease.Shard,
					Detail: "coordinator refused lease extension (expired, re-dispatched, or quarantined); abandoning shard",
				})
				lost.Store(true)
				cancel()
				return
			}
		}
	}()

	sbegin := tr.Begin()
	census, viol, err := func() (c *harness.Census, v []core.Violation, err error) {
		// Self-defense: an engine panic (or a poisoned shard) must become a
		// structured error payload, never a dead worker — the coordinator's
		// attempt accounting depends on hearing about failures.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("engine panic: %v", r)
			}
		}()
		for _, p := range wc.PoisonShards {
			if p == lease.Shard {
				panic(fmt.Sprintf("chaos: poisoned shard %d", lease.Shard))
			}
		}
		if wc.runEngine != nil {
			return wc.runEngine(runCtx, cfg, suite[lease.Start:lease.End], lease, wc.Jobs)
		}
		return harness.Run(runCtx, cfg, suite[lease.Start:lease.End], harness.WithWorkers(wc.Jobs),
			harness.WithProgress(func(done, total int, c harness.Census) {
				progress.Store(int64(c.StatesChecked))
			}))
	}()
	cancel()
	<-hbDone

	shardEvent := func(detail string) obs.Event {
		e := obs.Event{Workload: info.Spec.Suite, FS: info.Spec.FS,
			Worker: wc.ID, Sys: -1, Rank: lease.Shard, Detail: detail}
		if census != nil {
			e.States = census.StatesChecked
			e.Fences = census.Fences
			e.Violations = census.Violations
		}
		return e
	}
	errPayload := func(msg string) *ShardPayload {
		return &ShardPayload{Shard: lease.Shard, Worker: wc.ID, SuiteHash: info.SuiteHash, Err: msg}
	}
	switch {
	case err == nil:
		tr.Span("shard", sbegin, "", shardEvent(""))
		return NewShardPayload(lease.Shard, wc.ID, info.SuiteHash, census, viol), false
	case lost.Load():
		tr.Span("shard", sbegin, "", shardEvent("abandoned: lease lost mid-run"))
		return nil, true
	case ctx.Err() != nil:
		return nil, false
	case errors.Is(runCtx.Err(), context.DeadlineExceeded):
		msg := fmt.Sprintf("shard watchdog: engine exceeded -shard-timeout %v", wc.ShardTimeout)
		wc.Journal.Emit(obs.Event{
			Type: "shard-watchdog", FS: info.Spec.FS, Workload: info.Spec.Suite,
			Worker: wc.ID, Sys: -1, Rank: lease.Shard, Detail: msg,
		})
		tr.Span("shard", sbegin, "", shardEvent(msg))
		return errPayload(msg), false
	default:
		tr.Span("shard", sbegin, "", shardEvent("error: "+err.Error()))
		return errPayload(err.Error()), false
	}
}

// gone classifies transport errors that mean the coordinator process is no
// longer there (connection refused/reset, EOF mid-response) after the dial
// budget was exhausted, as opposed to protocol errors it answered with.
func gone(err error) bool {
	return errors.Is(err, ErrCoordinatorGone)
}

// ErrCoordinatorGone marks a wire call whose whole retry budget was spent
// on transport errors: the coordinator process is unreachable. RunWorker
// wraps it in its handshake error so frontends can exit with a distinct
// status ("could not join") instead of a generic failure.
var ErrCoordinatorGone = errors.New("coordinator unreachable")

// getJSON fetches url into out, retrying transport errors with jittered
// exponential backoff until the budget is spent (then wrapping
// ErrCoordinatorGone) or ctx is cancelled.
func getJSON(ctx context.Context, client *http.Client, url string, out any, budget time.Duration) error {
	return doJSON(ctx, client, http.MethodGet, url, nil, out, budget)
}

// GetJSON and PostJSON expose the worker wire-call helpers — jittered
// exponential backoff, ErrCoordinatorGone on budget exhaustion, 400/409
// retried as in-flight corruption — to the other campaign frontend
// (internal/fleet's fuzzing workers), so both modes share one retry
// contract against one coordinator implementation.
func GetJSON(ctx context.Context, client *http.Client, url string, out any, budget time.Duration) error {
	return getJSON(ctx, client, url, out, budget)
}

// PostJSON is the exported form of postJSON; see GetJSON.
func PostJSON(ctx context.Context, client *http.Client, url string, body, out any, budget time.Duration) error {
	return postJSON(ctx, client, url, body, out, budget)
}

// postJSON posts body (JSON) to url and decodes the response into out, with
// the same retry contract as getJSON. HTTP 400 and 409 are retried like
// transport errors: 400 means the coordinator could not parse or verify the
// body, and 409 means it refused the identity it carried — and since an
// honest worker's suite fingerprint is verified at handshake, both can only
// mean the request was corrupted in flight; the next attempt sends a fresh
// copy. Any other non-2xx response is returned immediately, never retried.
func postJSON(ctx context.Context, client *http.Client, url string, body, out any, budget time.Duration) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return doJSON(ctx, client, http.MethodPost, url, b, out, budget)
}

func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, out any, budget time.Duration) error {
	if budget <= 0 {
		budget = DefaultDialBudget
	}
	deadline := time.Now().Add(budget)
	base := budget / 64
	if base < time.Millisecond {
		base = time.Millisecond
	}
	maxSleep := budget / 4
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Full jitter over an exponentially growing cap: spreads a fleet
			// of workers hammering a restarting coordinator, instead of the
			// old fixed-250ms lockstep.
			sleepCap := base << uint(min(attempt-1, 30))
			if sleepCap <= 0 || sleepCap > maxSleep {
				sleepCap = maxSleep
			}
			sleep := time.Duration(rand.Int63n(int64(sleepCap) + 1)) //nolint:gosec // jitter, not crypto
			if time.Now().Add(sleep).After(deadline) {
				return fmt.Errorf("%w after %d attempts over %v: %v", ErrCoordinatorGone, attempt, budget, lastErr)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sleep):
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue // transport error: coordinator restarting or gone; retry
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBody))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusConflict {
			// The coordinator could not parse, verify, or accept what arrived
			// — truncation or corruption on the wire. Retrying sends a fresh,
			// intact copy; the budget bounds a genuinely bad sender.
			var we wireError
			if json.Unmarshal(data, &we) == nil && we.Error != "" {
				lastErr = fmt.Errorf("coordinator rejected body (400): %s", we.Error)
			} else {
				lastErr = fmt.Errorf("coordinator rejected body: %s", resp.Status)
			}
			continue
		}
		if resp.StatusCode/100 != 2 {
			var we wireError
			if json.Unmarshal(data, &we) == nil && we.Error != "" {
				return fmt.Errorf("coordinator rejected request (%d): %s", resp.StatusCode, we.Error)
			}
			return fmt.Errorf("coordinator rejected request: %s", resp.Status)
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				lastErr = fmt.Errorf("bad coordinator response: %w", err)
				continue // response corrupted in flight: retry
			}
		}
		return nil
	}
}
