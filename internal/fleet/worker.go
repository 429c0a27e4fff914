package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/fuzz"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// DefaultRoundTimeout is the worker-side watchdog for one round or
// minimization task. Rounds are small (DefaultRoundExecs fuzzing
// iterations), so a generous but finite deadline keeps a hung target from
// pinning a fleet slot.
const DefaultRoundTimeout = 10 * time.Minute

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// ID names this worker in leases and per-worker stats (default:
	// hostname-pid).
	ID string
	// RoundTimeout is the per-unit engine watchdog (0 = DefaultRoundTimeout,
	// negative = no watchdog).
	RoundTimeout time.Duration
	// DialBudget bounds the total retry time of each wire call
	// (0 = lease.DefaultDialBudget). Post-handshake exhaustion means the
	// soak is over (completed, or crashed with its checkpoint safe) and the
	// worker exits cleanly.
	DialBudget time.Duration
	// Journal, when non-nil, receives this worker's run-journal events.
	Journal *obs.Journal
	// OnLease, when set, is called after each granted lease before the unit
	// runs — the hook kill-mid-round tests use to die at a precise point.
	OnLease func(FuzzLeaseResponse)
	// Logf, when set, receives one line per lease/result event.
	Logf func(format string, args ...any)
	// Info, when non-nil, is a handshake result already fetched by the
	// frontend (the -worker CLI fetches once to pick fuzz vs. suite mode);
	// RunWorker skips its own fetch.
	Info *campaign.SpecInfo
}

// FetchSpec performs the coordinator handshake: fetch the campaign.SpecInfo
// served at campaign.PathSpec. Frontends call it once to route between the
// suite worker (campaign.RunWorker) and the fuzz worker (RunWorker here) —
// the two modes share the handshake path precisely so workers need no
// mode flag.
func FetchSpec(ctx context.Context, addr string, budget time.Duration) (*campaign.SpecInfo, error) {
	var info campaign.SpecInfo
	if err := lease.NewClient(addr, budget).Get(ctx, campaign.PathSpec, &info); err != nil {
		return nil, fmt.Errorf("fleet: handshake with %s: %w", addr, err)
	}
	return &info, nil
}

// RunWorker joins the fuzzing soak at wc.Addr and processes leases — rounds
// and minimization tasks — until the coordinator reports the soak done, the
// context is cancelled, or an error is fatal.
//
// The fault-model contract is lease.Loop's: no soak-visible progress except
// by a credited result POST; dying mid-unit lets the lease expire for
// re-dispatch; engine errors, contained panics, and tripped watchdogs
// become structured error payloads. On top of that, fuzz workers maintain a
// local cache of the coordinator's corpus log. Every entry is verified
// against its self-checksum on receipt, and a round lease carries (Base,
// Cursor) so the worker rebuilds exactly the log prefix the round must fuzz
// against; any mismatch discards the response — the re-grant path resends
// it intact — so a corrupted wire can slow a worker down but never make it
// fuzz against the wrong corpus.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	if wc.ID == "" {
		wc.ID = lease.DefaultID()
	}
	if wc.RoundTimeout == 0 {
		wc.RoundTimeout = DefaultRoundTimeout
	}
	logf := wc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	info := wc.Info
	if info == nil {
		var err error
		if info, err = FetchSpec(ctx, wc.Addr, wc.DialBudget); err != nil {
			return err
		}
	}
	if !info.Spec.Fuzz {
		return fmt.Errorf("fleet: coordinator %s serves a suite campaign, not a fuzz soak (use the campaign worker)", wc.Addr)
	}
	// Fingerprint check, the fuzz-mode analogue of the suite-hash check: a
	// worker whose spec normalization or hash diverged must stop here, not
	// merge incomparable rounds.
	spec := Normalize(info.Spec)
	if localHash := SpecHash(spec); localHash != info.SuiteHash {
		return fmt.Errorf(
			"fleet: spec fingerprint mismatch: coordinator %s has %s, this worker computes %s — binaries differ, refusing to fuzz",
			wc.Addr, info.SuiteHash, localHash)
	}
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	if spec.Stats {
		opts.Obs = obs.New()
	}
	opts.Journal = wc.Journal
	sys, cfg, err := opts.Resolve()
	if err != nil {
		return err
	}
	kv := spec.App == "kv"
	logf("worker %s joined fuzz soak %s: %s, seed %d, %d execs/round, %d rounds/gen, fingerprint %s",
		wc.ID, info.CampaignID, sys.Name, spec.FuzzSeed, spec.RoundExecs, spec.GenRounds, info.SuiteHash)

	w := &lease.Worker{
		ID: wc.ID, Client: lease.NewClient(wc.Addr, wc.DialBudget), Timeout: wc.RoundTimeout,
		Journal: wc.Journal, Logf: wc.Logf,
		LeasePath: PathFuzzLease, ResultPath: PathFuzzResult, HeartbeatPath: PathFuzzHeartbeat,
	}
	var cache []CorpusEntry
	next := func() any { return FuzzLeaseRequest{Worker: wc.ID, SpecHash: info.SuiteHash, Cursor: len(cache)} }
	err = lease.Loop(ctx, w, next, func(l FuzzLeaseResponse) *lease.Unit {
		switch l.Status {
		case LeaseRound:
			if wc.OnLease != nil {
				wc.OnLease(l)
			}
			if !absorbLease(&cache, l, wc.ID, logf) {
				return nil
			}
			logf("worker %s: running round %d (%d execs, seed %d, corpus %d)",
				wc.ID, l.Round, l.Execs, l.Seed, l.Cursor)
			return roundUnit(wc, cfg, kv, cache[:l.Cursor], l, info)
		case LeaseMinimize:
			if wc.OnLease != nil {
				wc.OnLease(l)
			}
			logf("worker %s: minimizing cluster %q (task %d, budget %d)",
				wc.ID, l.MinCluster, l.MinID, l.MinBudget)
			return minUnit(wc, cfg, l, info)
		}
		return nil
	})
	if err != nil && ctx.Err() == nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return err
}

// absorbLease applies a round lease's corpus delta to the worker's cache,
// verifying geometry and per-entry checksums. false = the response was
// corrupted in flight; the caller discards it and re-polls.
func absorbLease(cache *[]CorpusEntry, lease FuzzLeaseResponse, id string, logf func(string, ...any)) bool {
	if lease.Base < 0 || lease.Base > len(*cache) || lease.Base > lease.Cursor ||
		lease.Base+len(lease.Corpus) != lease.Cursor {
		logf("worker %s: lease round %d corpus delta [%d,+%d) fails geometry check against cursor %d (cache %d)",
			id, lease.Round, lease.Base, len(lease.Corpus), lease.Cursor, len(*cache))
		return false
	}
	for i, e := range lease.Corpus {
		if e.Sum == "" || e.Sum != EntrySum(e) {
			logf("worker %s: lease round %d corpus entry %d fails its checksum", id, lease.Round, lease.Base+i)
			return false
		}
	}
	*cache = append((*cache)[:lease.Base], lease.Corpus...)
	return true
}

// roundUnit is one leased fuzzing round as the lease worker runs it: a
// fresh Node over the round's corpus cut, run for the round's execs.
func roundUnit(wc WorkerConfig, cfg core.Config, kv bool, corpus []CorpusEntry,
	l FuzzLeaseResponse, info *campaign.SpecInfo) *lease.Unit {
	var node atomic.Pointer[Node]
	result := func(r *FuzzResult) *FuzzResult {
		r.Kind, r.Worker, r.SpecHash, r.Round = ResultRound, wc.ID, info.SuiteHash, l.Round
		return r
	}
	return &lease.Unit{
		Kind: ResultRound, ID: l.Round, TTL: time.Duration(l.TTLNanos),
		Event: obs.Event{FS: info.Spec.FS, Workload: "fuzz", Worker: wc.ID, Sys: -1, Rank: l.Round},
		Beat: func(n int) any {
			return FuzzHeartbeat{Worker: wc.ID, SpecHash: info.SuiteHash, Kind: ResultRound, ID: l.Round, Execs: n}
		},
		Progress: func() int {
			if n := node.Load(); n != nil {
				return n.Progress()
			}
			return 0
		},
		Fail: func(msg string) lease.Result { return result(&FuzzResult{Err: msg}) },
		Run: func(ctx context.Context) (lease.Result, error) {
			start := time.Now()
			n, err := NewNode(cfg, l.Seed, kv, corpus)
			if err != nil {
				return nil, err
			}
			node.Store(n)
			d, err := n.RunRound(ctx, l.Execs)
			if err != nil {
				return nil, err
			}
			return result(&FuzzResult{
				Execs:             d.Execs,
				StatesChecked:     d.StatesChecked,
				RetriedChecks:     d.RetriedChecks,
				QuarantinedChecks: d.QuarantinedChecks,
				ElapsedNanos:      time.Since(start).Nanoseconds(),
				NewEntries:        d.NewEntries,
				Violations:        d.Violations,
				Obs:               d.Obs,
			}), nil
		},
	}
}

// minUnit is one leased minimization task: shrink the reproducer with
// fuzz.Minimize, then re-run the minimized workload once and report whether
// it still trips the same violation cluster — the census only labels a
// reproducer "minimized" on a verified shrink.
func minUnit(wc WorkerConfig, cfg core.Config, l FuzzLeaseResponse, info *campaign.SpecInfo) *lease.Unit {
	var execs atomic.Int64
	result := func(r *FuzzResult) *FuzzResult {
		r.Kind, r.Worker, r.SpecHash = ResultMinimize, wc.ID, info.SuiteHash
		r.MinID, r.MinCluster = l.MinID, l.MinCluster
		return r
	}
	return &lease.Unit{
		Kind: ResultMinimize, ID: l.MinID, TTL: time.Duration(l.TTLNanos),
		Event: obs.Event{FS: info.Spec.FS, Workload: "fuzz", Worker: wc.ID, Sys: -1, Rank: l.MinID},
		Beat: func(n int) any {
			return FuzzHeartbeat{Worker: wc.ID, SpecHash: info.SuiteHash, Kind: ResultMinimize, ID: l.MinID, Execs: n}
		},
		Progress: func() int { return int(execs.Load()) },
		Fail:     func(msg string) lease.Result { return result(&FuzzResult{Err: msg}) },
		Run: func(ctx context.Context) (lease.Result, error) {
			w, err := workload.Parse(l.MinText)
			if err != nil {
				return nil, fmt.Errorf("reproducer unparseable: %w", err)
			}
			if w.Name == "" {
				w.Name = fmt.Sprintf("fleet-min-%d", l.MinID)
			}
			minimized, n, err := fuzz.Minimize(cfg, w, l.MinBudget)
			if err != nil {
				return nil, err
			}
			execs.Store(int64(n))
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, err := core.RunContext(ctx, cfg, minimized)
			if err != nil {
				return nil, err
			}
			// Verify against the cluster's stable coordinates (kind, FS): the
			// trace prefix changes whenever minimization drops an op, so the
			// full key cannot survive a successful shrink.
			wantKind, wantFS := ClusterKindFS(l.MinCluster)
			verified := false
			for _, v := range res.Violations {
				if v.Kind.String() == wantKind && v.FS == wantFS {
					verified = true
					break
				}
			}
			return result(&FuzzResult{
				MinText: workload.Format(minimized), MinExecs: n + 1, MinVerified: verified,
			}), nil
		},
	}
}
