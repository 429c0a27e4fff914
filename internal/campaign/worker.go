package campaign

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
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
// worker concludes the coordinator is gone (see lease.DefaultDialBudget).
const DefaultDialBudget = lease.DefaultDialBudget

// ErrCoordinatorGone marks a wire call whose whole retry budget was spent
// on transport errors. RunWorker wraps it in its handshake error so
// frontends can exit with a distinct status ("could not join") instead of a
// generic failure.
var ErrCoordinatorGone = lease.ErrCoordinatorGone

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
// The fault model is lease.Loop's: no campaign-visible progress except by
// a credited result, heartbeats every TTL/3, a watchdog with panic
// containment, and a clean exit when the coordinator stays unreachable
// after the handshake. Unreachable at handshake is different — the worker
// never joined — and fails with ErrCoordinatorGone.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	if wc.ID == "" {
		wc.ID = lease.DefaultID()
	}
	if wc.Jobs == 0 {
		wc.Jobs = 1
	}
	if wc.ShardTimeout == 0 {
		wc.ShardTimeout = DefaultShardTimeout
	}
	logf := wc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := lease.NewClient(wc.Addr, wc.DialBudget)

	// Handshake: fetch the spec, rebuild the suite locally, and verify the
	// fingerprint — a worker whose generator diverged must stop here, not
	// merge incomparable results.
	var info SpecInfo
	if err := client.Get(ctx, PathSpec, &info); err != nil {
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

	w := &lease.Worker{
		ID: wc.ID, Client: client, Timeout: wc.ShardTimeout, Journal: wc.Journal, Logf: wc.Logf,
		LeasePath: PathLease, ResultPath: PathResult, HeartbeatPath: PathHeartbeat,
	}
	req := LeaseRequest{Worker: wc.ID, SuiteHash: info.SuiteHash}
	err = lease.Loop(ctx, w, func() any { return req }, func(l LeaseResponse) *lease.Unit {
		if l.Status != LeaseGranted {
			return nil
		}
		if wc.OnLease != nil {
			wc.OnLease(l)
		}
		// Geometry check: the slice bounds are fully determined by (shard id,
		// shard size, suite length), all known since the handshake, so a lease
		// response corrupted in flight — a flipped bit in shard, start, or end
		// — cannot make the worker silently run the wrong slice.
		wantStart, wantEnd := shardRange(l.Shard, info.ShardSize, len(suite))
		if l.Shard < 0 || l.Shard >= info.Shards || l.Start != wantStart || l.End != wantEnd {
			logf("worker %s: lease shard %d [%d,%d) fails geometry check (want [%d,%d))",
				wc.ID, l.Shard, l.Start, l.End, wantStart, wantEnd)
			return nil
		}
		logf("worker %s: running shard %d [%d,%d)", wc.ID, l.Shard, l.Start, l.End)
		return shardUnit(wc, cfg, suite[l.Start:l.End], l, &info, obs.NewTracer(wc.Journal, traceSeed, l.Shard))
	})
	if err != nil && ctx.Err() == nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return err
}

// shardUnit is one leased suite slice as the lease worker runs it. The
// engine call runs harness.Run (or the test override), and the tracer's
// "shard" span carries the census counts.
func shardUnit(wc WorkerConfig, cfg core.Config, slice []workload.Workload, l LeaseResponse,
	info *SpecInfo, tr *obs.Tracer) *lease.Unit {
	var progress atomic.Int64
	u := &lease.Unit{
		Kind: unitShard, ID: l.Shard, TTL: time.Duration(l.TTLNanos), Tracer: tr,
		Event: obs.Event{FS: info.Spec.FS, Workload: info.Spec.Suite, Worker: wc.ID, Sys: -1, Rank: l.Shard},
		Beat: func(n int) any {
			return HeartbeatRequest{Worker: wc.ID, Shard: l.Shard, SuiteHash: info.SuiteHash, StatesChecked: n}
		},
		Progress: func() int { return int(progress.Load()) },
		Fail: func(msg string) lease.Result {
			return &ShardPayload{Shard: l.Shard, Worker: wc.ID, SuiteHash: info.SuiteHash, Err: msg}
		},
	}
	u.Run = func(ctx context.Context) (lease.Result, error) {
		for _, p := range wc.PoisonShards {
			if p == l.Shard {
				panic(fmt.Sprintf("chaos: poisoned shard %d", l.Shard))
			}
		}
		var census *harness.Census
		var viol []core.Violation
		var err error
		if wc.runEngine != nil {
			census, viol, err = wc.runEngine(ctx, cfg, slice, l, wc.Jobs)
		} else {
			census, viol, err = harness.Run(ctx, cfg, slice, harness.WithWorkers(wc.Jobs),
				harness.WithProgress(func(_, _ int, c harness.Census) { progress.Store(int64(c.StatesChecked)) }))
		}
		if census != nil {
			u.Event.States, u.Event.Fences, u.Event.Violations = census.StatesChecked, census.Fences, census.Violations
		}
		if err != nil {
			return nil, err
		}
		return NewShardPayload(l.Shard, wc.ID, info.SuiteHash, census, viol), nil
	}
	return u
}
