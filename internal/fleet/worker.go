package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/fuzz"
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
	// (0 = campaign.DefaultDialBudget). Post-handshake exhaustion means the
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
	if budget <= 0 {
		budget = campaign.DefaultDialBudget
	}
	var info campaign.SpecInfo
	client := &http.Client{}
	if err := campaign.GetJSON(ctx, client, "http://"+addr+campaign.PathSpec, &info, budget); err != nil {
		return nil, fmt.Errorf("fleet: handshake with %s: %w", addr, err)
	}
	return &info, nil
}

// RunWorker joins the fuzzing soak at wc.Addr and processes leases — rounds
// and minimization tasks — until the coordinator reports the soak done, the
// context is cancelled, or an error is fatal.
//
// The fault-model contract is the campaign worker's: no soak-visible
// progress except by a credited result POST; dying mid-unit lets the lease
// expire for re-dispatch; engine errors, contained panics, and tripped
// watchdogs become structured error payloads. On top of that, fuzz workers
// maintain a local cache of the coordinator's corpus log. Every entry is
// verified against its self-checksum on receipt, and a round lease carries
// (Base, Cursor) so the worker rebuilds exactly the log prefix the round
// must fuzz against; any mismatch discards the response — the re-grant path
// resends it intact — so a corrupted wire can slow a worker down but never
// make it fuzz against the wrong corpus.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	if wc.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		wc.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if wc.RoundTimeout == 0 {
		wc.RoundTimeout = DefaultRoundTimeout
	}
	if wc.DialBudget <= 0 {
		wc.DialBudget = campaign.DefaultDialBudget
	}
	logf := wc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := &http.Client{}

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

	var cache []CorpusEntry
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease FuzzLeaseResponse
		err := campaign.PostJSON(ctx, client, "http://"+wc.Addr+PathFuzzLease,
			FuzzLeaseRequest{Worker: wc.ID, SpecHash: info.SuiteHash, Cursor: len(cache)},
			&lease, wc.DialBudget)
		if err != nil {
			if gone(err) {
				logf("worker %s: coordinator %s gone; assuming soak over", wc.ID, wc.Addr)
				return nil
			}
			return fmt.Errorf("fleet: lease: %w", err)
		}
		var payload *FuzzResult
		var abandoned bool
		switch lease.Status {
		case campaign.LeaseDone:
			logf("worker %s: soak done", wc.ID)
			return nil
		case campaign.LeaseWait:
			// The coordinator already held this request until its hold cap
			// ran out: ask again at once.
			continue
		case LeaseRound:
			if wc.OnLease != nil {
				wc.OnLease(lease)
			}
			if !absorbLease(&cache, lease, wc.ID, logf) {
				continue // corrupt corpus delta: discard, re-poll (re-grant resends)
			}
			logf("worker %s: running round %d (%d execs, seed %d, corpus %d)",
				wc.ID, lease.Round, lease.Execs, lease.Seed, lease.Cursor)
			payload, abandoned = runRound(ctx, client, wc, cfg, kv, cache[:lease.Cursor], lease, info)
		case LeaseMinimize:
			if wc.OnLease != nil {
				wc.OnLease(lease)
			}
			logf("worker %s: minimizing cluster %q (task %d, budget %d)",
				wc.ID, lease.MinCluster, lease.MinID, lease.MinBudget)
			payload, abandoned = runMinimize(ctx, client, wc, cfg, lease, info)
		default:
			// Only in-flight corruption produces an unknown status: discard
			// and ask again after a short pause — whatever was granted
			// expires or is re-granted.
			logf("worker %s: unknown lease status %q; discarding (corrupt response?)", wc.ID, lease.Status)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(campaign.CorruptLeaseBackoff):
			}
			continue
		}
		if payload == nil {
			if abandoned {
				logf("worker %s: lease lost mid-run; abandoning", wc.ID)
				continue
			}
			return ctx.Err()
		}
		payload.Sum = ResultSum(payload)
		var credit campaign.CreditResponse
		err = campaign.PostJSON(ctx, client, "http://"+wc.Addr+PathFuzzResult, payload, &credit, wc.DialBudget)
		if err != nil {
			if gone(err) {
				logf("worker %s: coordinator %s gone before result; lease will expire elsewhere", wc.ID, wc.Addr)
				return nil
			}
			return fmt.Errorf("fleet: result: %w", err)
		}
		switch {
		case payload.Err != "":
			logf("worker %s: %s %d failed (%s); coordinator decides", wc.ID, payload.Kind, unitID(payload), payload.Err)
		case credit.Duplicate:
			logf("worker %s: %s %d was already credited (re-dispatched past our lease)", wc.ID, payload.Kind, unitID(payload))
		case credit.Accepted:
			logf("worker %s: %s %d credited", wc.ID, payload.Kind, unitID(payload))
		}
		if credit.Done {
			logf("worker %s: soak done", wc.ID)
			return nil
		}
	}
}

func unitID(p *FuzzResult) int {
	if p.Kind == ResultMinimize {
		return p.MinID
	}
	return p.Round
}

// absorbLease applies a round lease's corpus delta to the worker's cache,
// verifying geometry and per-entry checksums. false = the response was
// corrupted in flight; the caller discards it and re-polls.
func absorbLease(cache *[]CorpusEntry, lease FuzzLeaseResponse, id string, logf func(string, ...any)) bool {
	if lease.Base < 0 || lease.Base > len(*cache) || lease.Base > lease.Cursor ||
		lease.Base+len(lease.Corpus) != lease.Cursor {
		logf("worker %s: lease round %d corpus delta [%d,+%d) fails geometry check against cursor %d (cache %d); discarding (corrupt response?)",
			id, lease.Round, lease.Base, len(lease.Corpus), lease.Cursor, len(*cache))
		return false
	}
	for i, e := range lease.Corpus {
		if e.Sum == "" || e.Sum != EntrySum(e) {
			logf("worker %s: lease round %d corpus entry %d fails its checksum; discarding (corrupt response?)",
				id, lease.Round, lease.Base+i)
			return false
		}
	}
	*cache = append((*cache)[:lease.Base], lease.Corpus...)
	return true
}

// heartbeatLoop extends the unit's lease every TTL/3 while it runs,
// piggybacking live progress. An explicit refusal sets lost and cancels the
// unit. Identical contract to the campaign worker's inline loop.
func heartbeatLoop(runCtx context.Context, cancel context.CancelFunc, client *http.Client,
	wc WorkerConfig, info *campaign.SpecInfo, kind string, id int,
	ttlNanos int64, progress *atomic.Int64, lost *atomic.Bool, done chan struct{}) {
	defer close(done)
	interval := time.Duration(ttlNanos) / 3
	if interval <= 0 {
		interval = campaign.DefaultLeaseTTL / 3
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-runCtx.Done():
			return
		case <-t.C:
		}
		var hb campaign.HeartbeatResponse
		err := campaign.PostJSON(runCtx, client, "http://"+wc.Addr+PathFuzzHeartbeat,
			FuzzHeartbeat{Worker: wc.ID, SpecHash: info.SuiteHash, Kind: kind, ID: id,
				Execs: int(progress.Load())}, &hb, interval)
		if err != nil {
			return // the result POST or the lease expiry decides
		}
		if !hb.Extended {
			wc.Journal.Emit(obs.Event{
				Type: "heartbeat-refused", FS: info.Spec.FS, Workload: "fuzz",
				Worker: wc.ID, Sys: -1, Rank: id,
				Detail: "coordinator refused lease extension (expired or re-dispatched); abandoning " + kind,
			})
			lost.Store(true)
			cancel()
			return
		}
	}
}

// runRound executes one leased fuzzing round under the worker's
// self-defense layers and freezes the result. Returns (nil, false) on
// cancellation (nothing to report), (nil, true) when the lease was lost
// mid-run. Engine errors, contained panics, and tripped watchdogs become
// payloads with Err set — one failed dispatch attempt.
func runRound(ctx context.Context, client *http.Client, wc WorkerConfig, cfg core.Config,
	kv bool, corpus []CorpusEntry, lease FuzzLeaseResponse, info *campaign.SpecInfo) (*FuzzResult, bool) {
	runCtx, cancel := context.WithCancel(ctx)
	if wc.RoundTimeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, wc.RoundTimeout)
	}
	defer cancel()

	var lost atomic.Bool
	var progress atomic.Int64
	hbDone := make(chan struct{})
	go heartbeatLoop(runCtx, cancel, client, wc, info, ResultRound, lease.Round,
		lease.TTLNanos, &progress, &lost, hbDone)

	start := time.Now()
	delta, err := func() (d RoundDelta, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("engine panic: %v", r)
			}
		}()
		node, err := NewNode(cfg, lease.Seed, kv, corpus)
		if err != nil {
			return RoundDelta{}, err
		}
		ticker := make(chan struct{})
		defer close(ticker)
		go func() {
			// Mirror the node's states-checked count into the heartbeat
			// piggyback without threading a callback through the fuzz loop.
			t := time.NewTicker(200 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-ticker:
					return
				case <-t.C:
					progress.Store(int64(node.Progress()))
				}
			}
		}()
		return node.RunRound(runCtx, lease.Execs)
	}()
	cancel()
	<-hbDone

	errPayload := func(msg string) *FuzzResult {
		return &FuzzResult{Kind: ResultRound, Worker: wc.ID, SpecHash: info.SuiteHash,
			Round: lease.Round, Err: msg}
	}
	switch {
	case err == nil:
		return &FuzzResult{
			Kind: ResultRound, Worker: wc.ID, SpecHash: info.SuiteHash,
			Round:             lease.Round,
			Execs:             delta.Execs,
			StatesChecked:     delta.StatesChecked,
			RetriedChecks:     delta.RetriedChecks,
			QuarantinedChecks: delta.QuarantinedChecks,
			ElapsedNanos:      time.Since(start).Nanoseconds(),
			NewEntries:        delta.NewEntries,
			Violations:        delta.Violations,
			Obs:               delta.Obs,
		}, false
	case lost.Load():
		return nil, true
	case ctx.Err() != nil:
		return nil, false
	case runCtx.Err() == context.DeadlineExceeded:
		msg := fmt.Sprintf("round watchdog: engine exceeded %v", wc.RoundTimeout)
		wc.Journal.Emit(obs.Event{
			Type: "shard-watchdog", FS: info.Spec.FS, Workload: "fuzz",
			Worker: wc.ID, Sys: -1, Rank: lease.Round, Detail: msg,
		})
		return errPayload(msg), false
	default:
		return errPayload(err.Error()), false
	}
}

// runMinimize shrinks a leased reproducer with fuzz.Minimize, then re-runs
// the minimized workload once and reports whether it still trips the same
// violation cluster — the census only labels a reproducer "minimized" on a
// verified shrink.
func runMinimize(ctx context.Context, client *http.Client, wc WorkerConfig, cfg core.Config,
	lease FuzzLeaseResponse, info *campaign.SpecInfo) (*FuzzResult, bool) {
	runCtx, cancel := context.WithCancel(ctx)
	if wc.RoundTimeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, wc.RoundTimeout)
	}
	defer cancel()

	var lost atomic.Bool
	var progress atomic.Int64
	hbDone := make(chan struct{})
	go heartbeatLoop(runCtx, cancel, client, wc, info, ResultMinimize, lease.MinID,
		lease.TTLNanos, &progress, &lost, hbDone)

	payload, err := func() (p *FuzzResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("engine panic: %v", r)
			}
		}()
		w, err := workload.Parse(lease.MinText)
		if err != nil {
			return nil, fmt.Errorf("reproducer unparseable: %w", err)
		}
		if w.Name == "" {
			w.Name = fmt.Sprintf("fleet-min-%d", lease.MinID)
		}
		minimized, execs, err := fuzz.Minimize(cfg, w, lease.MinBudget)
		if err != nil {
			return nil, err
		}
		progress.Store(int64(execs))
		if err := runCtx.Err(); err != nil {
			return nil, err
		}
		res, err := core.RunContext(runCtx, cfg, minimized)
		if err != nil {
			return nil, err
		}
		// Verify against the cluster's stable coordinates (kind, FS): the
		// trace prefix changes whenever minimization drops an op, so the full
		// key cannot survive a successful shrink.
		wantKind, wantFS := ClusterKindFS(lease.MinCluster)
		verified := false
		for _, v := range res.Violations {
			if v.Kind.String() == wantKind && v.FS == wantFS {
				verified = true
				break
			}
		}
		return &FuzzResult{
			Kind: ResultMinimize, Worker: wc.ID, SpecHash: info.SuiteHash,
			MinID: lease.MinID, MinCluster: lease.MinCluster,
			MinText: workload.Format(minimized), MinExecs: execs + 1, MinVerified: verified,
		}, nil
	}()
	cancel()
	<-hbDone

	switch {
	case err == nil:
		return payload, false
	case lost.Load():
		return nil, true
	case ctx.Err() != nil:
		return nil, false
	case runCtx.Err() == context.DeadlineExceeded:
		return &FuzzResult{Kind: ResultMinimize, Worker: wc.ID, SpecHash: info.SuiteHash,
			MinID: lease.MinID, MinCluster: lease.MinCluster,
			Err: fmt.Sprintf("minimize watchdog: exceeded %v", wc.RoundTimeout)}, false
	default:
		return &FuzzResult{Kind: ResultMinimize, Worker: wc.ID, SpecHash: info.SuiteHash,
			MinID: lease.MinID, MinCluster: lease.MinCluster, Err: err.Error()}, false
	}
}

// gone mirrors the campaign worker's transport-vs-protocol classification.
func gone(err error) bool {
	return errors.Is(err, campaign.ErrCoordinatorGone)
}
