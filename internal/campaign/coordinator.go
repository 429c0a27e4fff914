package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// DefaultShardSize is how many workloads one lease covers. Coarse enough
// that per-shard HTTP and checkpoint overhead is noise, fine enough that a
// lost worker forfeits little work and stragglers rebalance.
const DefaultShardSize = 32

// DefaultLeaseTTL is how long a worker holds a shard before the
// coordinator assumes it died and re-dispatches (see lease.DefaultTTL).
const DefaultLeaseTTL = lease.DefaultTTL

// DefaultShardRetries is how many failed dispatch attempts (lease expiry,
// structured error payload, rejected result) a shard gets before it is
// quarantined instead of re-dispatched (-shard-retries).
const DefaultShardRetries = lease.DefaultRetries

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	Spec      Spec
	ShardSize int           // 0 = DefaultShardSize
	LeaseTTL  time.Duration // 0 = DefaultLeaseTTL
	// ShardRetries bounds failed dispatch attempts per shard before it is
	// quarantined (0 = DefaultShardRetries). A shard that crash-loops its
	// worker — OOM, SIGKILL, an engine panic that escapes the check sandbox
	// — degrades the campaign instead of stalling or failing it.
	ShardRetries int
	// CheckpointPath, when set, appends credited shards to this file and
	// — when the file already records shards of this same campaign —
	// resumes by skipping them ("-resume").
	CheckpointPath string
	// RetryQuarantined re-runs the shards the checkpoint records as
	// quarantined instead of carrying them forward ("-retry-quarantined"):
	// their attempt budgets reset and they are leased out again.
	RetryQuarantined bool
	// Progress, when set, is called after every credited shard with the
	// folded census so far (drives the -debug-addr /progress view).
	Progress func(doneWorkloads, totalWorkloads int, c harness.Census)
	// Journal, when non-nil, receives one "shard-quarantine" event per
	// quarantined shard — the campaign-layer mirror of the per-check
	// quarantine events the engine emits.
	Journal *obs.Journal
	// Logf, when set, receives one line per lease/credit/expiry event.
	Logf func(format string, args ...any)
}

// unitShard names the campaign's unit kind on the wire and in logs.
const unitShard = "shard"

// Stats summarizes the campaign's control-plane history.
type Stats struct {
	Shards int
	Done   int
	// ShardsQuarantined counts shards in the shard-quarantine ledger
	// (including ones carried forward from the checkpoint); a nonzero value
	// means the campaign completed degraded.
	ShardsQuarantined int
	lease.Counters
}

// shardJob is the campaign's lease.Job: one slot per shard, plus each
// credited shard's payload. Guarded by the engine lock.
type shardJob struct {
	lease.Table
	payloads []*ShardPayload
}

// Pick leases the lowest-numbered pending shard.
func (j *shardJob) Pick(time.Time) (*lease.Table, int, bool) {
	i, ok := j.FirstPending(len(j.Slots))
	return &j.Table, i, ok
}

// Finished reports whether every shard is credited or quarantined.
func (j *shardJob) Finished() bool { return j.Resolved() }

// Coordinator owns a campaign: the sharded suite, the shard lease table,
// and the census fold. It is an http.Handler serving the campaign wire
// protocol; the lease engine (internal/lease) runs the rest.
type Coordinator struct {
	info     SpecInfo
	progress func(done, total int, c harness.Census)
	// tracer emits "shard-lease" spans (one per credited shard, spanning
	// lease grant to credit) under the campaign's coordinates: seed = suite
	// hash, shard index -1. Nil when no journal is attached.
	tracer  *obs.Tracer
	started time.Time
	logf    func(format string, args ...any)
	mux     *http.ServeMux
	eng     *lease.Engine
	job     shardJob
}

// NewCoordinator builds the campaign: generates the suite, fingerprints
// it, shards it, and — when CheckpointPath names a file recording this
// same campaign — folds the already-completed shards back in so only the
// rest are leased out.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	suite, err := cfg.Spec.BuildSuite()
	if err != nil {
		return nil, err
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("campaign: empty suite %q", cfg.Spec.Suite)
	}
	shardSize := cfg.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	hash := workload.FormatSuiteHash(workload.SuiteHash(suite))
	n := numShards(len(suite), shardSize)
	c := &Coordinator{
		info: SpecInfo{
			CampaignID: campaignID(cfg.Spec, hash),
			Spec:       cfg.Spec,
			SuiteHash:  hash,
			Shards:     n,
			ShardSize:  shardSize,
			Workloads:  len(suite),
		},
		progress: cfg.Progress,
		started:  time.Now(),
		logf:     cfg.Logf,
	}
	c.job.Kind = unitShard
	c.job.Slots = make([]lease.Slot, n)
	c.job.payloads = make([]*ShardPayload, n)
	c.job.GiveUp = c.quarantine
	c.eng = lease.NewEngine(lease.Config{
		Hash: hash, HashName: "suite", TTL: cfg.LeaseTTL, Retries: cfg.ShardRetries,
		Tables: []*lease.Table{&c.job.Table}, Job: &c.job, Journal: cfg.Journal, Logf: cfg.Logf,
	})
	if cfg.Journal != nil {
		// The campaign traces under (suite hash, shard -1): deterministic for
		// a given campaign, distinct from every worker's per-shard traces.
		seed, _ := strconv.ParseUint(hash, 16, 64)
		c.tracer = obs.NewTracer(cfg.Journal, seed, -1)
	}
	status := func() any { return c.Status() }
	mux := http.NewServeMux()
	mux.HandleFunc(PathSpec, lease.Value(func() any { return c.info }))
	mux.HandleFunc(PathLease, lease.Call("lease", func(r *http.Request, req LeaseRequest) (LeaseResponse, error) {
		return lease.Hold(r.Context(), c.eng, req.Worker, req.SuiteHash, c.respond)
	}))
	mux.HandleFunc(PathResult, lease.Results(c.eng, c.Credit))
	mux.HandleFunc(PathHeartbeat, lease.Call("heartbeat", func(_ *http.Request, req HeartbeatRequest) (HeartbeatResponse, error) {
		return c.Heartbeat(req)
	}))
	mux.HandleFunc(PathStatus, lease.Value(status))
	mux.HandleFunc(PathDash, lease.Dashboard(dashTmpl, status, c.logf))
	mux.HandleFunc("/debug/metrics", lease.Metrics(func() *obs.Snapshot {
		cen, _ := c.Merged()
		return cen.Obs
	}))
	c.mux = mux

	if cfg.CheckpointPath != "" {
		if err := c.attachCheckpoint(cfg.CheckpointPath, cfg.RetryQuarantined); err != nil {
			return nil, err
		}
	}
	c.eng.Settle()
	return c, nil
}

func campaignID(spec Spec, suiteHash string) string {
	h := fnv.New64a()
	b, _ := json.Marshal(spec)
	h.Write(b)
	h.Write([]byte(suiteHash))
	return fmt.Sprintf("c%016x", h.Sum64())
}

// attachCheckpoint replays the checkpoint's shard credits and quarantines,
// then opens it for appending. The coordinator is not yet shared, so the
// replay runs without the engine lock.
func (c *Coordinator) attachCheckpoint(path string, retryQuarantined bool) error {
	st, err := LoadCheckpoint(path)
	if err != nil {
		return err
	}
	if err := st.Validate(c.info); err != nil {
		return err
	}
	if st.Skipped > 0 {
		c.log("checkpoint: skipped %d corrupt/torn lines in %s", st.Skipped, path)
	}
	resumed := 0
	for _, p := range st.Payloads {
		if p.SuiteHash != c.info.SuiteHash || p.Shard < 0 || p.Shard >= len(c.job.Slots) {
			c.log("checkpoint: ignoring foreign shard record (shard %d, hash %s)", p.Shard, p.SuiteHash)
			continue
		}
		if c.eng.Restore(&c.job.Table, p.Shard) {
			c.job.payloads[p.Shard] = p
			resumed++
		}
	}
	// Quarantine records: a credit anywhere in the file wins (the shard was
	// eventually checked, e.g. by a prior -retry-quarantined run); otherwise
	// the shard carries its quarantine forward — never re-credited, never
	// silently re-run — unless this run asks to retry it.
	requeued := 0
	for _, q := range st.Quarantined {
		if q.SuiteHash != "" && q.SuiteHash != c.info.SuiteHash {
			c.log("checkpoint: ignoring foreign quarantine record (shard %d, hash %s)", q.Shard, q.SuiteHash)
			continue
		}
		if q.Shard < 0 || q.Shard >= len(c.job.Slots) {
			c.log("checkpoint: ignoring out-of-range quarantine record (shard %d)", q.Shard)
			continue
		}
		slot := &c.job.Slots[q.Shard]
		switch {
		case slot.State == lease.Credited:
			// later credited: done wins
		case retryQuarantined:
			*slot = lease.Slot{}
			requeued++
		default:
			*slot = lease.Slot{State: lease.GivenUp, Worker: q.Worker, Attempts: q.Attempts, LastErr: q.Err}
		}
	}
	var header any
	if st.Header == nil {
		header = ckptLine{
			Type: "campaign", CampaignID: c.info.CampaignID, SuiteHash: c.info.SuiteHash,
			FS: c.info.Spec.FS, Suite: c.info.Spec.Suite, Workloads: c.info.Workloads,
			Shards: c.info.Shards, ShardSize: c.info.ShardSize,
		}
	}
	log, err := lease.OpenLog(path, header)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	c.eng.Attach(log)
	if resumed > 0 {
		c.log("checkpoint: resumed %d/%d shards from %s", resumed, len(c.job.Slots), path)
	}
	if n := c.job.Count(lease.GivenUp); n > 0 {
		c.log("checkpoint: carrying %d quarantined shards forward (re-run them with -retry-quarantined)", n)
	}
	if requeued > 0 {
		c.log("checkpoint: re-queued %d quarantined shards for retry", requeued)
	}
	return nil
}

// Info returns the campaign identity served on handshake.
func (c *Coordinator) Info() SpecInfo { return c.info }

func (c *Coordinator) log(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// shardRange returns shard i's suite slice bounds.
func (c *Coordinator) shardRange(i int) (start, end int) {
	return shardRange(i, c.info.ShardSize, c.info.Workloads)
}

// quarantine is the shard table's give-up hook: the shard moves to the
// quarantine ledger — removed from the campaign (never re-credited),
// persisted in the checkpoint, journaled, and reported; never silent, never
// fatal. Engine lock held.
func (c *Coordinator) quarantine(i int) (obs.Event, any) {
	q := c.quarantineEntryLocked(i)
	c.log("shard QUARANTINED: %s", q)
	return obs.Event{
		Type: "shard-quarantine", FS: c.info.Spec.FS, Workload: c.info.Spec.Suite,
		Sys: -1, Rank: i, States: q.End - q.Start, Detail: q.String(),
	}, ckptLine{Type: "quarantine", Quarantine: &q}
}

// quarantineEntryLocked renders shard i's ledger entry. Engine lock held.
func (c *Coordinator) quarantineEntryLocked(i int) ShardQuarantine {
	s := &c.job.Slots[i]
	start, end := c.shardRange(i)
	return ShardQuarantine{
		Shard: i, Start: start, End: end, SuiteHash: c.info.SuiteHash,
		Worker: s.Worker, Err: s.LastErr, Attempts: s.Attempts,
	}
}

// Quarantined returns the shard-quarantine ledger in shard order.
func (c *Coordinator) Quarantined() []ShardQuarantine {
	var out []ShardQuarantine
	c.eng.Locked(func() {
		for i := range c.job.Slots {
			if c.job.Slots[i].State == lease.GivenUp {
				out = append(out, c.quarantineEntryLocked(i))
			}
		}
	})
	return out
}

// Degraded reports whether the campaign carries quarantined shards: its
// census is partial (the quarantined slices went unchecked) and the CLI
// exits with the distinct degraded code so CI can tell "degraded" from
// "failed".
func (c *Coordinator) Degraded() bool { return c.Stats().ShardsQuarantined > 0 }

// Lease hands the lowest-numbered pending shard to a worker — or, when the
// worker already holds one, that shard again with a fresh deadline — or
// tells it to wait (everything in flight) or exit (done, draining, or
// failed). It never blocks; the HTTP handler holds a LeaseWait at the
// coordinator instead (lease.Hold).
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	return lease.Lease(c.eng, req.Worker, req.SuiteHash, c.respond)
}

// respond renders a lease answer. Engine lock held.
func (c *Coordinator) respond(status string, _ *lease.Table, i int) LeaseResponse {
	if status != "" {
		return LeaseResponse{Status: status}
	}
	start, end := c.shardRange(i)
	return LeaseResponse{Status: LeaseGranted, Shard: i, Start: start, End: end, TTLNanos: int64(c.eng.TTL())}
}

// Credit records one shard result, at most once per (shard id, suite
// fingerprint): a resurrected slow worker whose lease expired and whose
// shard was re-run elsewhere gets Duplicate, and its payload is discarded.
// A payload with Err set is one failed dispatch attempt.
func (c *Coordinator) Credit(p *ShardPayload) (CreditResponse, error) {
	resp, err := c.eng.Credit(p, nil, func(i int) any {
		c.job.payloads[i] = p
		// One measurement span per credited shard, spanning lease grant to
		// credit: the campaign-side view of shard latency (includes wire and
		// queueing time the worker's own "shard" span cannot see).
		c.tracer.Span("shard-lease", c.job.Slots[i].LeasedAt, "", obs.Event{
			FS: c.info.Spec.FS, Workload: c.info.Spec.Suite, Worker: p.Worker,
			Sys: -1, Rank: p.Shard, States: p.StatesChecked,
		})
		return ckptLine{Type: "shard", Payload: p}
	})
	if resp.Accepted && c.progress != nil {
		cen, _ := c.Merged()
		c.progress(cen.Workloads, c.info.Workloads, *cen)
	}
	return resp, err
}

// Merged folds the credited shards, in shard order, into the campaign
// census so far. Quarantined shards contribute nothing (their slices went
// unchecked); their count lands in the census obs snapshot under the
// measurement-class "shards-quarantined" counter, which Fingerprint
// excludes — the census over the healthy shards stays byte-identical to a
// serial run over the same slices.
func (c *Coordinator) Merged() (*harness.Census, []core.Violation) {
	var payloads []*ShardPayload
	quarantined := 0
	c.eng.Locked(func() {
		for i := range c.job.Slots {
			if c.job.Slots[i].State == lease.Credited {
				payloads = append(payloads, c.job.payloads[i])
			}
		}
		quarantined = c.job.Count(lease.GivenUp)
	})
	cen, viol := Fold(payloads)
	if quarantined > 0 {
		if cen.Obs == nil {
			cen.Obs = &obs.Snapshot{}
		}
		if cen.Obs.Counters == nil {
			cen.Obs.Counters = make(map[string]int64, 1)
		}
		cen.Obs.Counters[obs.CtrShardsQuarantined.String()] = int64(quarantined)
	}
	return cen, viol
}

// Heartbeat extends a live lease (POST /campaign/heartbeat); see
// lease.Engine.Heartbeat.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	return c.eng.Heartbeat(req.SuiteHash, unitShard, req.Shard, req.Worker, req.StatesChecked)
}

// Stats snapshots the control-plane counters.
func (c *Coordinator) Stats() (st Stats) {
	c.eng.Locked(func() {
		st = Stats{
			Shards:            len(c.job.Slots),
			Done:              c.job.Count(lease.Credited),
			ShardsQuarantined: c.job.Count(lease.GivenUp),
			Counters:          c.eng.CountersLocked(),
		}
	})
	return st
}

// Drain stops issuing new leases; in-flight shards may still report and
// be credited (and checkpointed) until their deadlines expire. Held lease
// requests are answered LeaseDone at once.
func (c *Coordinator) Drain() { c.eng.Drain() }

// Wait blocks until the campaign completes, fails, or ctx is cancelled.
// Cancellation is the graceful path (first SIGINT): the coordinator stops
// issuing leases, keeps crediting in-flight shards to the checkpoint until
// they report or their leases expire, and returns the partial census with
// ctx's error.
func (c *Coordinator) Wait(ctx context.Context) (*harness.Census, []core.Violation, error) {
	failed, err := c.eng.Wait(ctx)
	if failed != nil {
		return nil, nil, failed
	}
	cen, viol := c.Merged()
	return cen, viol, err
}

// Close releases the checkpoint file handle. A closed coordinator drains:
// it issues no more leases, and held lease requests are answered LeaseDone.
func (c *Coordinator) Close() error { return c.eng.Close() }

// --- HTTP surface -------------------------------------------------------

// Wire paths. Workers GET the spec once (handshake), then loop
// POST lease -> run shard (heartbeating) -> POST result.
const (
	PathSpec      = "/campaign/spec"
	PathLease     = "/campaign/lease"
	PathResult    = "/campaign/result"
	PathHeartbeat = "/campaign/heartbeat"
	// PathStatus and PathDash are the read-only observability surface:
	// PathStatus serves the live JSON shard map (dashboards, scripts, the CI
	// smoke), PathDash a stdlib-only auto-refreshing HTML view of the same
	// snapshot. Neither mutates campaign state.
	PathStatus = "/campaign/status"
	PathDash   = "/campaign/dash"
)

// ServeHTTP serves the campaign protocol.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Server binds a Coordinator to a TCP listener (-serve ADDR).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ListenAndServe starts serving the campaign protocol on addr (host:port;
// port 0 picks a free one, see Addr). h is usually the Coordinator itself;
// the chaos harness wraps it with WrapWireFaults.
func ListenAndServe(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("campaign: listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// closeGrace bounds how long Server.Close lets in-flight handlers finish.
// A coordinator that completed, drained or closed answers its held lease
// requests at once, so this is normally a few milliseconds; it is what lets
// those LeaseDone answers reach the workers before the listener goes away.
const closeGrace = 2 * time.Second

// Close stops the listener, lets in-flight requests — held lease requests
// answering LeaseDone above all — finish for up to closeGrace, then closes
// every remaining connection.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close() //nolint:errcheck // grace spent: drop the stragglers
	}
	return err
}

// String formats the control-plane summary the -serve frontend prints:
// shard accounting first, then per-worker credit counts sorted by worker
// name (deterministic output for logs and tests).
func (st Stats) String() string {
	lines := []string{fmt.Sprintf("campaign: %d/%d shards done (%s)", st.Done, st.Shards, st.Counters)}
	if st.ShardsQuarantined > 0 {
		lines = append(lines, fmt.Sprintf(
			"  DEGRADED: %d shards quarantined after exhausting their dispatch attempts — census excludes their workloads (re-run with -retry-quarantined)",
			st.ShardsQuarantined))
	}
	return strings.Join(append(lines, st.WorkerLines("shards")...), "\n")
}
