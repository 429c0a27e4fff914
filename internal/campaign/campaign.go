// Package campaign is the distributed campaign runner: a stdlib-only
// coordinator/worker subsystem that shards a workload suite into numbered
// leases, dispatches them to worker processes over HTTP/JSON, and folds
// the results back into one Census.
//
// The design extends the engine's determinism contract one level up. A
// shard is a contiguous slice of the suite, identified by (shard index,
// suite fingerprint); a worker runs harness.Run on its slice and posts
// back the frozen census. Because every census field is either a sum, a
// maximum, or a suite-ordered concatenation, folding shard payloads in
// shard-index order reproduces the serial census byte for byte — for any
// worker count, any lease-expiry schedule, and any mid-campaign worker
// kill. Crediting is at-most-once (a resurrected slow worker's duplicate
// result is discarded), and completed shards are appended to an append-only
// checkpoint so a killed coordinator restarts with -resume and skips
// finished work.
//
// Fault tolerance falls out of the lease state machine (internal/lease):
// pending -> leased(worker, deadline) -> done | quarantined. A worker that
// dies mid-shard simply lets its lease expire; the shard reverts to pending
// and is re-dispatched. A shard that keeps failing — lease expiries,
// structured error payloads from a worker's watchdog, results rejected at
// the wire — spends a bounded number of dispatch attempts and then moves to
// the shard-quarantine ledger instead of failing the campaign or looping:
// the campaign completes degraded with a partial census over the healthy
// shards. Workers heartbeat live leases so a conservative TTL never loses a
// legitimately long shard, and result payloads carry an FNV-64a
// self-checksum so wire corruption is rejected, never mis-credited. Nothing
// a worker does before its result is credited has any effect on the
// campaign state.
package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"chipmunk/internal/ace"
	"chipmunk/internal/app/kvwork"
	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/pmem"
	"chipmunk/internal/workload"
)

// Spec is the campaign configuration the coordinator is authoritative for.
// Workers fetch it on handshake and resolve it locally — the suite itself
// never crosses the wire, only its name plus the fingerprint that proves
// both sides generated the same workloads. Fields mirror the shared CLI
// flags (harness.BindCLI), in wire-friendly types.
type Spec struct {
	// FS and Bugs select the system under test (Bugs in -bugs syntax:
	// "none", "all", or a comma-separated ID list).
	FS   string `json:"fs"`
	Bugs string `json:"bugs"`
	// Suite names the ACE suite (ace.SuiteByName); Max truncates it
	// (0 = whole suite).
	Suite string `json:"suite"`
	Max   int    `json:"max,omitempty"`
	// Cap, Workers, CheckTimeoutNanos, ExhaustiveLimit, and FullCopy are
	// the engine tuning knobs every worker must share for results to be
	// comparable.
	Cap               int   `json:"cap"`
	Workers           int   `json:"workers"`
	CheckTimeoutNanos int64 `json:"check_timeout_ns"`
	ExhaustiveLimit   int   `json:"exhaustive_limit"`
	FullCopy          bool  `json:"full_copy,omitempty"`
	// Faults/FaultSeed enable the deterministic pmem fault injector.
	Faults    bool   `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Stats asks workers to run with a metrics collector so shard
	// censuses carry obs snapshots (merged like the serial path would).
	Stats bool `json:"stats,omitempty"`
	// App selects an application-level workload and contract checker
	// ("" = FS-oracle checking); AppBugs is its -app-bugs spec. Every
	// worker must resolve the same app for shard results to be mergeable.
	App     string `json:"app,omitempty"`
	AppBugs string `json:"app_bugs,omitempty"`

	// Fuzz switches the campaign into fleet-fuzzing mode (internal/fleet):
	// leases become coverage-guided fuzzing rounds and minimization tasks
	// instead of suite shards, and corpus entries travel over the wire.
	// Workers auto-detect the mode from the handshake spec.
	Fuzz bool `json:"fuzz,omitempty"`
	// FuzzSeed is the soak's master seed: round r runs with RNG seed
	// splitmix64(FuzzSeed, r), so each round's behaviour is a pure function
	// of (spec, round index, corpus cut).
	FuzzSeed int64 `json:"fuzz_seed,omitempty"`
	// BudgetExecs / BudgetNanos bound the soak; exactly one is nonzero
	// (-budget EXECS or -budget DURATION). Exec budgets make the whole soak
	// deterministic; duration budgets bound wall-clock instead.
	BudgetExecs int   `json:"budget_execs,omitempty"`
	BudgetNanos int64 `json:"budget_ns,omitempty"`
	// RoundExecs is how many fuzzing iterations one round lease covers;
	// MinExecs the engine-invocation budget of one minimization task;
	// GenRounds the generation width (round r's corpus is the canonical
	// fold of everything discovered in generations before r/GenRounds).
	RoundExecs int `json:"round_execs,omitempty"`
	MinExecs   int `json:"min_execs,omitempty"`
	GenRounds  int `json:"gen_rounds,omitempty"`
}

// BuildSuite generates the spec's workload suite locally.
func (s Spec) BuildSuite() ([]workload.Workload, error) {
	suite, err := ace.SuiteByName(s.Suite)
	if err != nil {
		return nil, err
	}
	if s.Max > 0 && s.Max < len(suite) {
		suite = suite[:s.Max]
	}
	return suite, nil
}

// Options resolves the spec into the harness Options a worker runs with.
func (s Spec) Options() (harness.Options, error) {
	set, err := harness.ParseBugSpec(s.Bugs)
	if err != nil {
		return harness.Options{}, fmt.Errorf("campaign spec: %w", err)
	}
	opts := harness.Options{
		FS:                      s.FS,
		Bugs:                    set,
		Cap:                     s.Cap,
		Workers:                 s.Workers,
		CheckTimeout:            time.Duration(s.CheckTimeoutNanos),
		ExhaustiveLimit:         s.ExhaustiveLimit,
		DisableDeltaMaterialize: s.FullCopy,
	}
	if s.Faults {
		opts.Faults = pmem.DefaultFaults(s.FaultSeed)
	}
	if s.App != "" {
		if err := harness.AppByName(s.App); err != nil {
			return harness.Options{}, fmt.Errorf("campaign spec: %w", err)
		}
		appBugs, err := kvwork.ParseBugs(s.AppBugs)
		if err != nil {
			return harness.Options{}, fmt.Errorf("campaign spec: %w", err)
		}
		opts.App = s.App
		opts.AppBugs = appBugs
	}
	return opts, nil
}

// SpecInfo is the handshake response (GET /campaign/spec): the spec plus
// the coordinator's view of the sharded suite. Workers rebuild the suite
// from Spec, hash it, and refuse to proceed on a fingerprint mismatch —
// diverged generators must fail loudly, never merge silently.
type SpecInfo struct {
	CampaignID string `json:"campaign_id"`
	Spec       Spec   `json:"spec"`
	// SuiteHash is workload.FormatSuiteHash of the coordinator's suite.
	SuiteHash string `json:"suite_hash"`
	Shards    int    `json:"shards"`
	ShardSize int    `json:"shard_size"`
	Workloads int    `json:"workloads"`
}

// LeaseRequest asks for the next shard (POST /campaign/lease).
type LeaseRequest struct {
	Worker    string `json:"worker"`
	SuiteHash string `json:"suite_hash"`
}

// Lease states returned to workers.
const (
	// LeaseGranted carries a shard to run.
	LeaseGranted = "lease"
	// LeaseWait means every remaining shard is leased out — poll again.
	LeaseWait = lease.Wait
	// LeaseDone means the campaign is complete (or draining): exit.
	LeaseDone = lease.Done
)

// LeaseResponse answers a lease request.
type LeaseResponse struct {
	Status string `json:"status"`
	// Shard/Start/End identify the granted suite slice (Status=="lease").
	Shard int `json:"shard,omitempty"`
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// TTLNanos is the lease deadline budget: a result posted after the
	// coordinator re-dispatched the shard is discarded as a duplicate.
	TTLNanos int64 `json:"ttl_ns,omitempty"`
}

// LeaseStatus implements lease.Response.
func (r LeaseResponse) LeaseStatus() string { return r.Status }

// ShardPayload is one completed shard's result (POST /campaign/result):
// the frozen census of harness.Run over suite[Start:End], carried field by
// field in wire-friendly integers plus the violation and quarantine
// ledgers verbatim. The coordinator folds payloads in shard order, so the
// distributed census is byte-identical to the serial one.
type ShardPayload struct {
	Shard     int    `json:"shard"`
	Worker    string `json:"worker"`
	SuiteHash string `json:"suite_hash"`

	Workloads            int               `json:"workloads"`
	StatesChecked        int               `json:"states_checked"`
	StatesDeduped        int               `json:"states_deduped"`
	TruncatedFences      int               `json:"truncated_fences"`
	Fences               int               `json:"fences"`
	MaxInFlight          int               `json:"max_in_flight"`
	InFlightSum          int               `json:"in_flight_sum"`
	InFlightN            int               `json:"in_flight_n"`
	ViolationTotal       int               `json:"violation_total"`
	SuppressedQuarantine int               `json:"suppressed_quarantine"`
	RetriedChecks        int               `json:"retried_checks"`
	ElapsedNanos         int64             `json:"elapsed_ns"`
	Violations           []core.Violation  `json:"violations,omitempty"`
	Quarantined          []core.Quarantine `json:"quarantined,omitempty"`
	Obs                  *obs.Snapshot     `json:"obs,omitempty"`

	// Err reports a shard whose engine call failed — an engine error, a
	// contained worker panic, or a tripped shard watchdog. The coordinator
	// counts it as a failed dispatch attempt: the shard is re-dispatched
	// until -shard-retries attempts are spent, then quarantined.
	Err string `json:"err,omitempty"`

	// Sum is the payload's FNV-64a self-checksum (PayloadSum over the JSON
	// encoding with Sum cleared). The coordinator recomputes it at the wire
	// boundary and rejects mismatches with HTTP 400, so a truncated or
	// corrupted body is re-dispatched instead of mis-credited.
	Sum string `json:"sum,omitempty"`
}

// PayloadSum computes the payload's wire self-checksum: FNV-64a over the
// canonical JSON encoding with the Sum field cleared. Pure function of the
// payload's content, so worker and coordinator agree independently.
func PayloadSum(p *ShardPayload) string {
	cp := *p
	cp.Sum = ""
	return lease.Checksum(&cp)
}

// Claim implements lease.Result.
func (p *ShardPayload) Claim() lease.Claim {
	return lease.Claim{Hash: p.SuiteHash, Kind: unitShard, ID: p.Shard, Worker: p.Worker, Err: p.Err, Sum: p.Sum}
}

// Checksum implements lease.Result.
func (p *ShardPayload) Checksum() string { return PayloadSum(p) }

// Seal implements lease.Result.
func (p *ShardPayload) Seal() { p.Sum = PayloadSum(p) }

// ShardQuarantine is one entry of the shard-quarantine ledger: a shard that
// failed -shard-retries dispatch attempts (lease expiries, structured error
// payloads, rejected results) and was removed from the campaign instead of
// failing it or looping forever. Mirrors PR 2's per-check quarantine one
// level up: the campaign completes with a partial census, and the ledger is
// never silent — persisted in the checkpoint, rendered in CAMPAIGN.txt,
// counted in obs, and reflected in the degraded exit code.
type ShardQuarantine struct {
	// Shard and Start/End identify the suite slice that went unchecked.
	Shard int `json:"shard"`
	Start int `json:"start"`
	End   int `json:"end"`
	// SuiteHash pins the ledger entry to its campaign, like shard credits.
	SuiteHash string `json:"suite_hash,omitempty"`
	// Worker is the last worker that held the shard; Err the last failure
	// (lease expiry, engine error payload, rejected result); Attempts the
	// total failed dispatch attempts.
	Worker   string `json:"worker,omitempty"`
	Err      string `json:"err,omitempty"`
	Attempts int    `json:"attempts"`
}

// String renders the ledger entry deterministically (reports, tests).
func (q ShardQuarantine) String() string {
	return fmt.Sprintf("shard %d [%d,%d): %d failed attempts, last worker %q: %s",
		q.Shard, q.Start, q.End, q.Attempts, q.Worker, q.Err)
}

// HeartbeatRequest extends a live lease (POST /campaign/heartbeat): a
// worker legitimately still running its shard posts one every TTL/3, so
// lease durations can stay conservative without losing long shards — an
// expiry then means the worker is actually gone.
type HeartbeatRequest struct {
	Worker    string `json:"worker"`
	Shard     int    `json:"shard"`
	SuiteHash string `json:"suite_hash"`
	// StatesChecked piggybacks the shard's live progress (crash states
	// checked so far) on the heartbeat, feeding the coordinator's
	// /campaign/status rate and ETA without a separate progress wire call.
	StatesChecked int `json:"states_checked,omitempty"`
}

// HeartbeatResponse answers a heartbeat; see lease.HeartbeatResponse.
type HeartbeatResponse = lease.HeartbeatResponse

// CreditResponse answers a result post; see lease.CreditResponse.
type CreditResponse = lease.CreditResponse

// NewShardPayload freezes a shard's harness.Run outcome into its wire form.
func NewShardPayload(shard int, worker, suiteHash string, c *harness.Census, viol []core.Violation) *ShardPayload {
	return &ShardPayload{
		Shard:                shard,
		Worker:               worker,
		SuiteHash:            suiteHash,
		Workloads:            c.Workloads,
		StatesChecked:        c.StatesChecked,
		StatesDeduped:        c.StatesDeduped,
		TruncatedFences:      c.TruncatedFences,
		Fences:               c.Fences,
		MaxInFlight:          c.MaxInFlight,
		InFlightSum:          c.InFlightSum,
		InFlightN:            c.InFlightN,
		ViolationTotal:       c.Violations,
		SuppressedQuarantine: c.SuppressedQuarantine,
		RetriedChecks:        c.RetriedChecks,
		ElapsedNanos:         int64(c.Elapsed),
		Violations:           viol,
		Quarantined:          c.Quarantined,
		Obs:                  c.Obs,
	}
}

// Fold merges shard payloads — in shard-index order — into one Census plus
// the suite-ordered violation list, exactly the way the serial aggregator
// would have built them. Payloads must be complete (one per shard) and
// sorted by Shard; the coordinator guarantees both. Elapsed is the sum of
// shard wall-clocks (the campaign's total compute, not its wall-clock —
// the coordinator reports its own wall-clock separately).
func Fold(payloads []*ShardPayload) (*harness.Census, []core.Violation) {
	c := &harness.Census{}
	var viol []core.Violation
	var elapsed int64
	for _, p := range payloads {
		if p == nil {
			continue
		}
		c.Workloads += p.Workloads
		c.StatesChecked += p.StatesChecked
		c.StatesDeduped += p.StatesDeduped
		c.TruncatedFences += p.TruncatedFences
		c.Fences += p.Fences
		if p.MaxInFlight > c.MaxInFlight {
			c.MaxInFlight = p.MaxInFlight
		}
		c.InFlightSum += p.InFlightSum
		c.InFlightN += p.InFlightN
		c.Violations += p.ViolationTotal
		c.SuppressedQuarantine += p.SuppressedQuarantine
		c.RetriedChecks += p.RetriedChecks
		c.Quarantined = append(c.Quarantined, p.Quarantined...)
		viol = append(viol, p.Violations...)
		elapsed += p.ElapsedNanos
		if p.Obs != nil {
			if c.Obs == nil {
				c.Obs = &obs.Snapshot{}
			}
			c.Obs.Merge(*p.Obs)
		}
	}
	if c.InFlightN > 0 {
		c.AvgInFlight = float64(c.InFlightSum) / float64(c.InFlightN)
	}
	c.Elapsed = time.Duration(elapsed)
	return c, viol
}

// Fingerprint renders the deterministic identity of a census: every field
// the serial == distributed contract covers, and nothing wall-clock. Two
// runs of the same suite — serial, or distributed across any worker count,
// lease schedule, and kill pattern — produce byte-identical fingerprints.
// Obs is reduced to its DeterministicCounters (stage durations are
// measurements, and the materialization/fault counters are per-attempt).
func Fingerprint(c *harness.Census, viol []core.Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workloads=%d states=%d deduped=%d truncated=%d fences=%d max-inflight=%d inflight=%d/%d violations=%d suppressed-quarantine=%d retried=%d\n",
		c.Workloads, c.StatesChecked, c.StatesDeduped, c.TruncatedFences,
		c.Fences, c.MaxInFlight, c.InFlightSum, c.InFlightN,
		c.Violations, c.SuppressedQuarantine, c.RetriedChecks)
	for _, v := range viol {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	for _, q := range c.Quarantined {
		b.WriteString(q.String())
		b.WriteByte('\n')
	}
	if c.Obs != nil {
		ctrs := c.Obs.DeterministicCounters()
		names := make([]string, 0, len(ctrs))
		for name := range ctrs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "obs %s=%d\n", name, ctrs[name])
		}
	}
	return b.String()
}

// shardRange returns shard i's suite slice bounds for a given shard size.
func shardRange(i, shardSize, workloads int) (start, end int) {
	start = i * shardSize
	end = start + shardSize
	if end > workloads {
		end = workloads
	}
	return start, end
}

// numShards returns how many shards a suite splits into.
func numShards(workloads, shardSize int) int {
	if workloads == 0 {
		return 0
	}
	return (workloads + shardSize - 1) / shardSize
}
