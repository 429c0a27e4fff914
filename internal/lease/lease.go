// Package lease is the lease engine both distributed front ends run on:
// suite campaigns (internal/campaign) and fleet fuzzing soaks
// (internal/fleet). A job is split into numbered units — suite shards,
// fuzzing rounds, minimization tasks — held in slot tables. A coordinator
// leases units to worker processes over HTTP/JSON and credits each unit's
// result at most once. It appends credits and give-ups to a fsynced JSONL
// checkpoint log so a killed coordinator resumes where it stopped.
//
// Every unit moves through one state machine:
//
//	pending -> leased(worker, deadline) -> credited | given up
//
// A leased unit whose deadline passes is reclaimed lazily, on the next
// lease request or drain check. Reclaim, a structured error result and a
// result rejected at the wire each count as one failed attempt. A unit that
// spends its attempt budget is given up instead of looping. Workers
// heartbeat live leases every TTL/3, so an expiry means the worker is gone.
//
// The engine knows nothing of what a unit computes. An adapter supplies the
// unit payloads, the fold that credits a result, the give-up record and
// journal event, and the census.
package lease

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"chipmunk/internal/obs"
)

// DefaultTTL is how long a worker holds a unit before the coordinator
// assumes it died and re-dispatches. Heartbeats extend live leases, so the
// TTL can stay conservative without losing long units.
const DefaultTTL = 2 * time.Minute

// DefaultRetries is how many failed attempts (lease expiry, structured
// error result, rejected result) a unit gets before it is given up.
const DefaultRetries = 3

// Lease statuses every job shares. Jobs add their own grant statuses.
const (
	// Wait means every grantable unit is leased out: ask again.
	Wait = "wait"
	// Done means the job is complete (or draining): exit.
	Done = "done"
)

// HeartbeatResponse answers a heartbeat. Extended is false when the unit is
// no longer leased to this worker (expired and re-dispatched, done, or
// given up): the worker should abandon it rather than burn compute on a
// result that would be discarded.
type HeartbeatResponse struct {
	Extended bool  `json:"extended"`
	TTLNanos int64 `json:"ttl_ns,omitempty"`
}

// CreditResponse answers a result post.
type CreditResponse struct {
	Accepted bool `json:"accepted"`
	// Duplicate means the unit was already resolved (at-most-once): the
	// result was discarded.
	Duplicate bool `json:"duplicate"`
	// Quarantined means the unit is given up — either this error result
	// spent its last attempt, or a late result arrived for a unit already
	// given up (discarded: a unit is never both credited and given up).
	Quarantined bool `json:"quarantined,omitempty"`
	// Done means the job completed with this credit.
	Done bool `json:"done"`
}

// Claim is the identity a result body asserts: the job fingerprint, the
// unit it answers, the worker that ran it, and its outcome.
type Claim struct {
	Hash string
	// Kind names the unit's table; ID is the unit's index in it.
	Kind   string
	ID     int
	Worker string
	// Err is the worker-reported failure ("" = success).
	Err string
	// Sum is the self-checksum the body carries.
	Sum string
}

// Result is a unit result as the engine's wire boundary and the worker
// loop see it.
type Result interface {
	Claim() Claim
	// Checksum hashes the result's content with its Sum field cleared.
	Checksum() string
	// Seal stores Checksum in the Sum field.
	Seal()
}

// Checksum is the wire self-checksum of a message: FNV-64a over its JSON
// encoding. Pure function of content, so both sides compute it
// independently.
func Checksum(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Wire messages are plain marshalable structs; unreachable, but
		// never let checksumming panic the wire path.
		return fmt.Sprintf("unmarshalable: %v", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// State is a unit's lease state.
type State uint8

// Unit states.
const (
	Pending State = iota
	Leased
	Credited
	GivenUp
)

// Slot is one unit's lease bookkeeping.
type Slot struct {
	State    State
	Worker   string
	Deadline time.Time
	// LeasedAt stamps the current grant; LastBeat is the latest heartbeat
	// for it, and Progress the live count that heartbeat carried.
	LeasedAt time.Time
	LastBeat time.Time
	Progress int
	// Attempts counts failed attempts; LastErr describes the latest.
	Attempts int
	LastErr  string
}

// Table is one kind of unit: a slot per unit, indexed by unit id. Tables
// may grow while the job runs.
type Table struct {
	// Kind names the unit in wire messages and log lines ("shard", "round",
	// "minimize").
	Kind  string
	Slots []Slot
	// GiveUp is called, with the engine lock held, when slot i spends its
	// last attempt. It returns the journal event to emit and the checkpoint
	// record to append.
	GiveUp func(i int) (event obs.Event, record any)
}

// Count returns how many slots are in state s.
func (t *Table) Count(s State) int {
	n := 0
	for i := range t.Slots {
		if t.Slots[i].State == s {
			n++
		}
	}
	return n
}

// FirstPending returns the lowest pending slot below limit.
func (t *Table) FirstPending(limit int) (int, bool) {
	for i := range t.Slots[:min(limit, len(t.Slots))] {
		if t.Slots[i].State == Pending {
			return i, true
		}
	}
	return 0, false
}

// Resolved reports whether every slot is credited or given up.
func (t *Table) Resolved() bool {
	return t.Count(Credited)+t.Count(GivenUp) == len(t.Slots)
}
