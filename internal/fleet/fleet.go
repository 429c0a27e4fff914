// Package fleet is the distributed coverage-guided fuzzing mode of the
// campaign runner: the scale-out counterpart of cmd/chipmunkfuzz, the way
// internal/campaign is the scale-out counterpart of suite runs.
//
// Workers run the gray-box fuzzer (internal/fuzz) locally in fixed-size
// rounds and ship what each round contributed — corpus candidates with
// their coverage signatures, violations, and counters — back to a
// coordinator, which owns the global corpus, the deduplicated bug census,
// and the checkpoint.
//
// # Determinism: generation barriers
//
// A naive distributed fuzzer is a race: whichever worker reports first
// shapes the corpus every later mutation draws from. Fleet mode removes the
// race with generation barriers. Rounds are numbered 0..R-1 and grouped
// into generations of GenRounds; round r fuzzes with RNG seed
// splitmix64(FuzzSeed, r) against the corpus cut that existed when its
// generation opened, and generation g+1 opens only when every generation-g
// round has resolved (credited or dropped). At that barrier the coordinator
// folds the generation's discoveries in a canonical order — sorted by
// (FNV-64a of the workload text, then text) — admitting an entry iff it
// still carries an unseen signature. The global corpus is therefore an
// append-only log that is a pure function of the spec, not of worker count,
// scheduling, or result arrival order; with an exec budget the entire soak
// — corpus, coverage, census — is byte-reproducible.
//
// Minimization rides the same machinery: the first fold that sees a new
// violation cluster (kind, FS, canonical trace prefix) creates a
// minimization task for its lexicographically-smallest reproducer, and the
// tasks are handed out as priority leases. Workers shrink the reproducer
// with fuzz.Minimize and re-verify that the minimized workload still trips
// the same cluster before the census trusts it.
package fleet

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"chipmunk/internal/campaign"
	"chipmunk/internal/core"
	"chipmunk/internal/lease"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// DefaultRoundExecs is how many fuzzing iterations one round lease covers:
// small enough that corpus folds happen frequently and a lost worker wastes
// little, large enough that wire overhead stays negligible.
const DefaultRoundExecs = 25

// DefaultGenRounds is the generation width: how many rounds share one
// corpus cut between folds.
const DefaultGenRounds = 8

// DefaultMinExecs is the engine-invocation budget of one minimization task.
const DefaultMinExecs = 60

// Lease statuses beyond lease.Wait / lease.Done.
const (
	// LeaseRound carries one fuzzing round.
	LeaseRound = "round"
	// LeaseMinimize carries one reproducer-minimization task.
	LeaseMinimize = "minimize"
)

// Wire paths. The handshake reuses campaign.PathSpec; the fuzzing protocol
// adds its own lease/result/heartbeat verbs so a fuzz worker pointed at a
// suite coordinator (or vice versa) fails loudly with 404s, never confuses
// shard indices with round indices.
const (
	PathFuzzLease     = "/campaign/fuzz-lease"
	PathFuzzResult    = "/campaign/fuzz-result"
	PathFuzzHeartbeat = "/campaign/fuzz-heartbeat"
)

// Normalize fills a fuzz spec's defaulted knobs in place so that the
// coordinator and every worker hash the same spec. Returns the input for
// chaining.
func Normalize(spec campaign.Spec) campaign.Spec {
	if spec.RoundExecs <= 0 {
		spec.RoundExecs = DefaultRoundExecs
	}
	if spec.GenRounds <= 0 {
		spec.GenRounds = DefaultGenRounds
	}
	if spec.MinExecs <= 0 {
		spec.MinExecs = DefaultMinExecs
	}
	if spec.FuzzSeed == 0 {
		spec.FuzzSeed = 1
	}
	return spec
}

// SpecHash fingerprints a fuzz spec the way workload.SuiteHash fingerprints
// a generated suite: FNV-64a over the canonical JSON encoding. Workers
// recompute it from the handshake spec and refuse to fuzz on a mismatch —
// the fuzz-mode analogue of the suite fingerprint check.
func SpecHash(spec campaign.Spec) string {
	return "fz" + lease.Checksum(spec)
}

// RoundSeed derives round r's fuzzer RNG seed from the soak's master seed
// via a splitmix64 scramble — adjacent rounds get statistically independent
// streams, and the mapping is a pure function both sides can compute.
func RoundSeed(master int64, round int) int64 {
	z := uint64(master) + (uint64(round)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// ParseBudget parses the -budget flag: a time.Duration ("90s", "2h") bounds
// wall-clock, a bare integer bounds total fuzzing execs. Exec budgets make
// the whole soak deterministic; duration budgets trade that for a
// predictable stop time.
func ParseBudget(s string) (execs int, d time.Duration, err error) {
	if s == "" {
		return 0, 0, fmt.Errorf("fleet: empty -budget (want a duration like 90s or an exec count like 2000)")
	}
	if n, nerr := strconv.Atoi(s); nerr == nil {
		if n <= 0 {
			return 0, 0, fmt.Errorf("fleet: -budget execs must be positive, got %d", n)
		}
		return n, 0, nil
	}
	dur, derr := time.ParseDuration(s)
	if derr != nil {
		return 0, 0, fmt.Errorf("fleet: bad -budget %q (want a duration like 90s or an exec count like 2000)", s)
	}
	if dur <= 0 {
		return 0, 0, fmt.Errorf("fleet: -budget duration must be positive, got %v", dur)
	}
	return 0, dur, nil
}

// CorpusEntry is one admitted workload on the wire and in the corpus log:
// the serialized workload plus the full signature set that justified its
// admission. Sum is an FNV-64a self-checksum (like campaign.ShardPayload's)
// so a corpus entry corrupted in flight is detected by the receiver, never
// silently mutated into a different corpus.
type CorpusEntry struct {
	// Text is the workload in workload.Format form (round-trips Parse).
	Text string `json:"text"`
	// Sigs is the workload's full sorted trace-signature multiset.
	Sigs []uint64 `json:"sigs"`
	Sum  string   `json:"sum,omitempty"`
}

// EntrySum computes a corpus entry's self-checksum: FNV-64a over the JSON
// encoding with Sum cleared.
func EntrySum(e CorpusEntry) string {
	e.Sum = ""
	return lease.Checksum(e)
}

// entryKey orders corpus candidates canonically at generation folds:
// primary key the FNV-64a of the workload text, ties broken by the text
// itself (total order, so the fold is deterministic).
func entryKey(e CorpusEntry) uint64 {
	h := fnv.New64a()
	h.Write([]byte(e.Text))
	return h.Sum64()
}

// FuzzLeaseRequest asks for the next unit of fuzzing work
// (POST /campaign/fuzz-lease).
type FuzzLeaseRequest struct {
	Worker   string `json:"worker"`
	SpecHash string `json:"spec_hash"`
	// Cursor is how many corpus-log entries the worker already caches, so
	// the coordinator ships only the missing suffix with each round lease.
	Cursor int `json:"cursor"`
}

// FuzzLeaseResponse answers a fuzz lease request. Status is LeaseRound,
// LeaseMinimize, lease.Wait, or lease.Done.
type FuzzLeaseResponse struct {
	Status string `json:"status"`

	// Round lease (Status == LeaseRound).
	Round int `json:"round,omitempty"`
	// Execs is the round's iteration count; Seed its fuzzer RNG seed.
	Execs int   `json:"execs,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
	// Corpus is corpus log [Base, Cursor): the entries the worker is
	// missing, by its request cursor, up to this round's generation cut.
	// Base < request cursor means the worker's cache ran ahead of this
	// round's cut (or was corrupted): truncate to Base, then append.
	Corpus []CorpusEntry `json:"corpus,omitempty"`
	Base   int           `json:"base"`
	// Cursor is the corpus cut this round must fuzz against: exactly the
	// first Cursor entries of the log.
	Cursor int `json:"cursor"`

	// Minimization lease (Status == LeaseMinimize).
	MinID      int    `json:"min_id,omitempty"`
	MinCluster string `json:"min_cluster,omitempty"`
	// MinText is the representative reproducer to shrink; MinBudget the
	// engine-invocation budget fuzz.Minimize gets.
	MinText   string `json:"min_text,omitempty"`
	MinBudget int    `json:"min_budget,omitempty"`

	TTLNanos int64 `json:"ttl_ns,omitempty"`
}

// LeaseStatus implements lease.Response.
func (r FuzzLeaseResponse) LeaseStatus() string { return r.Status }

// FuzzViolation is one violation on the wire: the cluster coordinates the
// census groups on (kind, FS, canonical trace prefix — exactly what the
// engine journals in its violation events) plus the serialized triggering
// workload so the coordinator can pick minimization representatives.
type FuzzViolation struct {
	Kind    string `json:"kind"`
	FS      string `json:"fs"`
	Prefix  string `json:"prefix"`
	SysName string `json:"sys_name,omitempty"`
	Phase   string `json:"phase,omitempty"`
	// Detail is the first line of the violation detail (journal convention).
	Detail string `json:"detail,omitempty"`
	// Workload is the triggering workload's name; Text its full serialized
	// form (workload.Format).
	Workload string `json:"workload"`
	Text     string `json:"text"`
}

// ClusterKey is the identity the census dedups on.
func (v FuzzViolation) ClusterKey() string {
	return v.Kind + "|" + v.FS + "|" + v.Prefix
}

// ClusterKindFS extracts a cluster key's stable coordinates. Minimization
// re-verification checks these two, not the full key: the trace prefix is a
// rendering of the op sequence, so removing padding ops necessarily changes
// it — a minimized reproducer re-verifies when it still trips the same
// violation kind on the same system.
func ClusterKindFS(key string) (kind, fs string) {
	parts := strings.SplitN(key, "|", 3)
	if len(parts) < 2 {
		return key, ""
	}
	return parts[0], parts[1]
}

// NewFuzzViolation freezes an engine violation into its wire form.
func NewFuzzViolation(v core.Violation) FuzzViolation {
	return FuzzViolation{
		Kind:     v.Kind.String(),
		FS:       v.FS,
		Prefix:   core.TracePrefix(v.Workload, v.Syscall),
		SysName:  v.SysName,
		Phase:    v.Phase.String(),
		Detail:   firstLine(v.Detail),
		Workload: v.Workload.Name,
		Text:     workload.Format(v.Workload),
	}
}

// Event renders the violation as the journal event the triage pipeline
// clusters — the same shape internal/core emits for live runs, so
// report.TriageEvents treats fleet results and merged journals identically.
func (v FuzzViolation) Event() obs.Event {
	return obs.Event{
		Type: "violation", FS: v.FS, Workload: v.Workload,
		Kind: v.Kind, Phase: v.Phase, Detail: v.Detail, Prefix: v.Prefix,
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// Result kinds.
const (
	ResultRound    = "round"
	ResultMinimize = "minimize"
)

// FuzzResult is one completed work unit (POST /campaign/fuzz-result):
// either a fuzzing round's contribution or a minimization outcome. Err set
// means the unit failed (engine error, contained panic, watchdog) — one
// failed dispatch attempt, mirroring campaign.ShardPayload.Err.
type FuzzResult struct {
	Kind     string `json:"kind"`
	Worker   string `json:"worker"`
	SpecHash string `json:"spec_hash"`

	// Round result fields.
	Round             int             `json:"round,omitempty"`
	Execs             int             `json:"execs,omitempty"`
	StatesChecked     int             `json:"states_checked,omitempty"`
	RetriedChecks     int             `json:"retried_checks,omitempty"`
	QuarantinedChecks int             `json:"quarantined_checks,omitempty"`
	ElapsedNanos      int64           `json:"elapsed_ns,omitempty"`
	NewEntries        []CorpusEntry   `json:"new_entries,omitempty"`
	Violations        []FuzzViolation `json:"violations,omitempty"`
	Obs               *obs.Snapshot   `json:"obs,omitempty"`

	// Minimization result fields. MinVerified reports that the minimized
	// workload was re-run and still tripped the same violation cluster.
	MinID       int    `json:"min_id,omitempty"`
	MinCluster  string `json:"min_cluster,omitempty"`
	MinText     string `json:"min_text,omitempty"`
	MinExecs    int    `json:"min_execs,omitempty"`
	MinVerified bool   `json:"min_verified,omitempty"`

	Err string `json:"err,omitempty"`
	// Sum is the FNV-64a self-checksum (ResultSum with Sum cleared),
	// verified at the coordinator's wire boundary like shard payloads.
	Sum string `json:"sum,omitempty"`
}

// ResultSum computes the result's wire self-checksum.
func ResultSum(p *FuzzResult) string {
	cp := *p
	cp.Sum = ""
	return lease.Checksum(&cp)
}

// Claim implements lease.Result: the unit is the round, or the
// minimization task, the result answers.
func (p *FuzzResult) Claim() lease.Claim {
	id := p.Round
	if p.Kind == ResultMinimize {
		id = p.MinID
	}
	return lease.Claim{Hash: p.SpecHash, Kind: p.Kind, ID: id, Worker: p.Worker, Err: p.Err, Sum: p.Sum}
}

// Checksum implements lease.Result.
func (p *FuzzResult) Checksum() string { return ResultSum(p) }

// Seal implements lease.Result.
func (p *FuzzResult) Seal() { p.Sum = ResultSum(p) }

// FuzzHeartbeat extends a live round or minimization lease
// (POST /campaign/fuzz-heartbeat). Kind is ResultRound or ResultMinimize;
// ID the round index or minimization task id.
type FuzzHeartbeat struct {
	Worker   string `json:"worker"`
	SpecHash string `json:"spec_hash"`
	Kind     string `json:"kind"`
	ID       int    `json:"id"`
	// Execs piggybacks live progress for the dashboard.
	Execs int `json:"execs,omitempty"`
}
