package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chipmunk/internal/core"
	"chipmunk/internal/harness"
	"chipmunk/internal/obs"
	"chipmunk/internal/workload"
)

// TestStatusSnapshot drives the lease state machine directly and checks the
// dashboard snapshot tracks it: shard states, the shard map, piggybacked
// heartbeat progress, credited throughput, and worker liveness.
func TestStatusSnapshot(t *testing.T) {
	spec := testSpec()
	spec.Max = 8
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	hash := coord.Info().SuiteHash

	st := coord.Status()
	if st.Shards != 2 || st.Pending != 2 || st.ShardMap != ".." {
		t.Fatalf("fresh status: %+v", st)
	}
	if st.SuiteHash != hash || st.Workloads != 8 || st.ShardSize != 4 {
		t.Fatalf("status identity: %+v", st)
	}

	l0, err := coord.Lease(LeaseRequest{Worker: "w0", SuiteHash: hash})
	if err != nil || l0.Status != LeaseGranted || l0.Shard != 0 {
		t.Fatalf("lease: %+v, %v", l0, err)
	}
	if _, err := coord.Heartbeat(HeartbeatRequest{
		Worker: "w0", Shard: 0, SuiteHash: hash, StatesChecked: 7,
	}); err != nil {
		t.Fatal(err)
	}
	// A lagging (smaller) progress report must not regress the gauge.
	if _, err := coord.Heartbeat(HeartbeatRequest{
		Worker: "w0", Shard: 0, SuiteHash: hash, StatesChecked: 3,
	}); err != nil {
		t.Fatal(err)
	}
	l1, err := coord.Lease(LeaseRequest{Worker: "w1", SuiteHash: hash})
	if err != nil || l1.Status != LeaseGranted || l1.Shard != 1 {
		t.Fatalf("lease: %+v, %v", l1, err)
	}
	if cr, err := coord.Credit(&ShardPayload{
		Shard: 1, Worker: "w1", SuiteHash: hash,
		Workloads: 4, StatesChecked: 100, ViolationTotal: 2,
	}); err != nil || !cr.Accepted {
		t.Fatalf("credit: %+v, %v", cr, err)
	}

	st = coord.Status()
	if st.Pending != 0 || st.Leased != 1 || st.Done != 1 || st.Quarantined != 0 {
		t.Fatalf("status counts: %+v", st)
	}
	if st.ShardMap != "r#" {
		t.Fatalf("shard map %q, want \"r#\"", st.ShardMap)
	}
	if st.StatesChecked != 107 { // 100 credited + 7 in flight
		t.Fatalf("states checked %d, want 107", st.StatesChecked)
	}
	if st.Violations != 2 {
		t.Fatalf("violations %d, want 2", st.Violations)
	}
	if st.StatesPerSec <= 0 || st.ETASec <= 0 {
		t.Fatalf("rate/ETA not derived: %+v", st)
	}
	if len(st.InFlight) != 1 || st.InFlight[0].Shard != 0 ||
		st.InFlight[0].Worker != "w0" || st.InFlight[0].StatesChecked != 7 {
		t.Fatalf("in-flight: %+v", st.InFlight)
	}
	if len(st.Workers) != 2 || st.Workers[0].ID != "w0" || st.Workers[1].ID != "w1" ||
		st.Workers[1].ShardsDone != 1 {
		t.Fatalf("workers: %+v", st.Workers)
	}
}

// TestStatusHTTPSurface serves the three read-only endpoints over a real
// listener: /campaign/status parses as JSON, /campaign/dash renders HTML,
// and /debug/metrics speaks the Prometheus text format with the shared
// content type.
func TestStatusHTTPSurface(t *testing.T) {
	spec := testSpec()
	spec.Max = 4
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	hash := coord.Info().SuiteHash
	col := obs.New()
	col.Inc(obs.CtrStatesChecked)
	snap := col.Snapshot()
	if cr, err := coord.Credit(&ShardPayload{
		Shard: 0, Worker: "w0", SuiteHash: hash,
		Workloads: 4, StatesChecked: 1, Obs: &snap,
	}); err != nil || !cr.Accepted || !cr.Done {
		t.Fatalf("credit: %+v, %v", cr, err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get(PathStatus)
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("status content type %q", ctype)
	}
	var st CampaignStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status does not parse: %v\n%s", err, body)
	}
	if st.Done != 1 || st.ShardMap != "#" || st.CampaignID != coord.Info().CampaignID {
		t.Fatalf("wire status: %+v", st)
	}

	body, ctype = get(PathDash)
	if !strings.Contains(ctype, "text/html") {
		t.Fatalf("dash content type %q", ctype)
	}
	for _, want := range []string{"<!DOCTYPE html>", coord.Info().CampaignID, "1/1 shards done", "shard map"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dash missing %q:\n%s", want, body)
		}
	}

	body, ctype = get("/debug/metrics")
	if ctype != obs.MetricsContentType {
		t.Fatalf("metrics content type %q, want %q", ctype, obs.MetricsContentType)
	}
	if !strings.Contains(body, "chipmunk_states_checked_total 1") {
		t.Fatalf("metrics missing credited counter:\n%s", body)
	}
}

// TestWorkerWatchdogJournal wedges every engine call so the worker's shard
// watchdog fires on each dispatch attempt: the journal must record one
// "shard-watchdog" event per attempt plus the shard spans, and the
// campaign must complete degraded with the shard quarantined — never hung.
func TestWorkerWatchdogJournal(t *testing.T) {
	spec := testSpec()
	spec.Max = 4
	var buf bytes.Buffer
	jr := obs.NewJournal(&buf)
	res := runCampaign(t, CoordinatorConfig{Spec: spec, ShardSize: 4, LeaseTTL: time.Second},
		1, nil, func(i int, wc *WorkerConfig) {
			wc.Journal = jr
			wc.ShardTimeout = 30 * time.Millisecond
			wc.runEngine = func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error) {
				<-ctx.Done()
				return nil, nil, ctx.Err()
			}
		})
	if res.workerErrs[0] != nil {
		t.Fatalf("worker: %v", res.workerErrs[0])
	}
	if res.stats.ShardsQuarantined != 1 || res.stats.Done != 0 {
		t.Fatalf("stats: %+v", res.stats)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournal(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
	}
	watchdogs, shardSpans := 0, 0
	for _, e := range events {
		switch {
		case e.Type == "shard-watchdog":
			watchdogs++
			if e.Rank != 0 || e.Worker != "w0" || !strings.Contains(e.Detail, "shard watchdog") {
				t.Fatalf("watchdog event: %+v", e)
			}
		case e.Type == "span" && e.Name == "shard":
			shardSpans++
			if e.Trace == "" || e.Span == "" {
				t.Fatalf("shard span missing IDs: %+v", e)
			}
		}
	}
	if watchdogs != DefaultShardRetries {
		t.Fatalf("%d shard-watchdog events, want %d (one per dispatch attempt)", watchdogs, DefaultShardRetries)
	}
	if shardSpans != DefaultShardRetries {
		t.Fatalf("%d shard spans, want %d", shardSpans, DefaultShardRetries)
	}
}

// TestWorkerHeartbeatRefusedJournal refuses a worker's first heartbeat at
// the wire: the worker must journal a "heartbeat-refused" event, abandon
// the shard, and the campaign must still complete once the lease expires
// and the shard re-runs.
func TestWorkerHeartbeatRefusedJournal(t *testing.T) {
	spec := testSpec()
	spec.Max = 4
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, ShardSize: 4, LeaseTTL: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var refused atomic.Bool
	srv, err := ListenAndServe("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathHeartbeat && refused.CompareAndSwap(false, true) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"extended":false}`)
			return
		}
		coord.ServeHTTP(w, r)
	}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jr := obs.NewJournal(&buf)
	var calls atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			Addr: srv.Addr(), ID: "w0", Journal: jr,
			runEngine: func(ctx context.Context, cfg core.Config, slice []workload.Workload, lease LeaseResponse, jobs int) (*harness.Census, []core.Violation, error) {
				if calls.Add(1) == 1 {
					// First attempt wedges until the refused heartbeat
					// cancels it; later attempts succeed immediately.
					<-ctx.Done()
					return nil, nil, ctx.Err()
				}
				return &harness.Census{Workloads: len(slice)}, nil, nil
			},
		})
	}()
	if _, _, err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	srv.Close()
	if st := coord.Stats(); st.Done != st.Shards || st.ShardsQuarantined != 0 {
		t.Fatalf("campaign did not recover: %+v", st)
	}
	if err := jr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadJournal(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("journal read: err=%v skipped=%d", err, skipped)
	}
	refusals := 0
	for _, e := range events {
		if e.Type == "heartbeat-refused" {
			refusals++
			if e.Worker != "w0" || e.Rank != 0 {
				t.Fatalf("refusal event: %+v", e)
			}
		}
	}
	if refusals != 1 {
		t.Fatalf("%d heartbeat-refused events, want 1", refusals)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}
