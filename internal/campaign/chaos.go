package campaign

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"chipmunk/internal/lease"
)

// This file is the campaign-layer analogue of pmem's fault injector: a
// deterministic wire-fault layer that wraps the coordinator's HTTP handlers
// and mangles traffic the way flaky fleet networks do — dropped
// connections, duplicated deliveries, truncated and bit-flipped bodies,
// and injected latency. Every decision is a pure function of
// (Seed, endpoint, call-index), mirroring pmem.FaultConfig's
// (Seed, site) contract: two runs with the same seed and the same
// per-endpoint call sequence inject identical faults, so chaos tests are
// replayable. (Which concurrent request draws which call-index is
// scheduling-dependent — but the campaign's correctness argument never
// depends on which request gets hurt, only on surviving it.)
//
// The injector sits in front of the coordinator, so "truncate" and
// "corrupt" mangle *request* bodies as received — exactly the damage the
// payload self-checksum (PayloadSum) exists to catch — while "drop" aborts
// the connection before the handler runs, exercising the workers' jittered
// retry budget, and "duplicate" replays the request against the handler a
// second time, exercising at-most-once crediting.

// WireFaultConfig configures the injector. The zero value injects nothing;
// rates are "roughly one in N" with 0 disabling that class, matching
// pmem.FaultConfig.
type WireFaultConfig struct {
	// Seed keys every injection decision; runs with equal seeds and equal
	// call sequences inject identical faults.
	Seed uint64
	// DropOneInN aborts roughly one in N requests before the handler runs:
	// the client sees a torn connection and no response.
	DropOneInN int
	// DupOneInN delivers roughly one in N requests to the handler twice;
	// the client sees only the first response. Models a retransmit racing a
	// slow ack.
	DupOneInN int
	// TruncateOneInN cuts roughly one in N request bodies to a prefix.
	TruncateOneInN int
	// CorruptOneInN flips one bit in roughly one in N request bodies.
	CorruptOneInN int
	// DelayOneInN stalls roughly one in N requests for up to MaxDelay.
	DelayOneInN int
	// MaxDelay bounds injected latency (default 50ms when DelayOneInN > 0).
	MaxDelay time.Duration
}

// Enabled reports whether any fault class is active.
func (c *WireFaultConfig) Enabled() bool {
	return c != nil && (c.DropOneInN > 0 || c.DupOneInN > 0 ||
		c.TruncateOneInN > 0 || c.CorruptOneInN > 0 || c.DelayOneInN > 0)
}

// DefaultWireFaults returns the rates the -wire-faults CLI flag enables:
// frequent enough that a short campaign exercises every class, rare enough
// that it still completes inside the workers' retry budgets.
func DefaultWireFaults(seed uint64) *WireFaultConfig {
	return &WireFaultConfig{
		Seed:           seed,
		DropOneInN:     11,
		DupOneInN:      13,
		TruncateOneInN: 17,
		CorruptOneInN:  17,
		DelayOneInN:    7,
		MaxDelay:       25 * time.Millisecond,
	}
}

// Per-class domain separators so one seed drives independent streams,
// mirroring pmem's tearDomain/flipDomain/readDomain.
const (
	wireDropDomain  = 0x64726f70636f6e6e // "dropconn"
	wireDupDomain   = 0x6475706c69636174 // "duplicat"
	wireTruncDomain = 0x7472756e63626f64 // "truncbod"
	wireFlipDomain  = 0x77697265666c6970 // "wireflip"
	wireDelayDomain = 0x64656c6179776972 // "delaywir"
)

// WireFaultStats counts injected faults per class, for test logs and the
// chaos smoke's visibility ("silent chaos" would prove nothing).
type WireFaultStats struct {
	Calls     uint64
	Dropped   uint64
	Duped     uint64
	Truncated uint64
	Corrupted uint64
	Delayed   uint64
}

func (s WireFaultStats) String() string {
	return fmt.Sprintf("wire faults: %d calls, %d dropped, %d duplicated, %d truncated, %d corrupted, %d delayed",
		s.Calls, s.Dropped, s.Duped, s.Truncated, s.Corrupted, s.Delayed)
}

// wireFaults is the wrapping handler.
type wireFaults struct {
	cfg   WireFaultConfig
	inner http.Handler

	mu    sync.Mutex
	calls map[string]*uint64 // per-endpoint call-index counters

	dropped, duped, truncated, corrupted, delayed, total atomic.Uint64
}

// WrapWireFaults wraps h with the deterministic wire-fault injector. A nil
// or disabled config returns h unchanged. The second return value reads the
// injection counters (nil when disabled).
func WrapWireFaults(h http.Handler, cfg *WireFaultConfig) (http.Handler, func() WireFaultStats) {
	if !cfg.Enabled() {
		return h, nil
	}
	wf := &wireFaults{cfg: *cfg, inner: h, calls: make(map[string]*uint64)}
	if wf.cfg.MaxDelay <= 0 {
		wf.cfg.MaxDelay = 50 * time.Millisecond
	}
	return wf, wf.stats
}

func (wf *wireFaults) stats() WireFaultStats {
	return WireFaultStats{
		Calls:     wf.total.Load(),
		Dropped:   wf.dropped.Load(),
		Duped:     wf.duped.Load(),
		Truncated: wf.truncated.Load(),
		Corrupted: wf.corrupted.Load(),
		Delayed:   wf.delayed.Load(),
	}
}

// callIndex assigns the next per-endpoint call index.
func (wf *wireFaults) callIndex(endpoint string) uint64 {
	wf.mu.Lock()
	defer wf.mu.Unlock()
	p := wf.calls[endpoint]
	if p == nil {
		p = new(uint64)
		wf.calls[endpoint] = p
	}
	i := *p
	*p++
	return i
}

// site folds (seed, endpoint, call-index, class-domain) into one mixed
// 64-bit decision value, the wire analogue of pmem's per-site hashes.
func (wf *wireFaults) site(domain uint64, endpoint string, idx uint64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, endpoint)
	return mixWire(wf.cfg.Seed ^ domain ^ h.Sum64() ^ idx*0x9e3779b97f4a7c15)
}

// mixWire is the splitmix64 finalizer (same mixer as pmem.mix, local so the
// campaign package stays free of a pmem dependency).
func mixWire(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func hit(h uint64, oneInN int) bool {
	return oneInN > 0 && h%uint64(oneInN) == 0
}

func (wf *wireFaults) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	wf.total.Add(1)
	endpoint := r.URL.Path
	idx := wf.callIndex(endpoint)

	if h := wf.site(wireDelayDomain, endpoint, idx); hit(h, wf.cfg.DelayOneInN) {
		wf.delayed.Add(1)
		time.Sleep(time.Duration(mixWire(h) % uint64(wf.cfg.MaxDelay)))
	}
	if hit(wf.site(wireDropDomain, endpoint, idx), wf.cfg.DropOneInN) {
		// Torn connection: the handler never runs, the client gets no
		// response bytes. http.ErrAbortHandler is the sanctioned way to
		// abort without a stack trace.
		wf.dropped.Add(1)
		panic(http.ErrAbortHandler)
	}

	// Body mutations model damage in flight: what the coordinator's reader
	// sees differs from what the worker sent, and only the self-checksum
	// stands between that and a mis-credit.
	var body []byte
	if r.Body != nil && r.Method == http.MethodPost {
		b, err := io.ReadAll(io.LimitReader(r.Body, lease.MaxLine+1))
		r.Body.Close()
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		body = b
	}
	if body != nil {
		if h := wf.site(wireTruncDomain, endpoint, idx); hit(h, wf.cfg.TruncateOneInN) && len(body) > 1 {
			wf.truncated.Add(1)
			body = body[:1+int(mixWire(h)%uint64(len(body)-1))]
		}
		if h := wf.site(wireFlipDomain, endpoint, idx); hit(h, wf.cfg.CorruptOneInN) && len(body) > 0 {
			wf.corrupted.Add(1)
			bit := mixWire(h) % uint64(len(body)*8)
			flipped := append([]byte(nil), body...)
			flipped[bit/8] ^= 1 << (bit % 8)
			body = flipped
		}
	}

	serve := func(ctx context.Context, w http.ResponseWriter) {
		req := r.WithContext(ctx)
		if body != nil {
			req = r.Clone(ctx)
			req.Body = io.NopCloser(bytes.NewReader(body))
			req.ContentLength = int64(len(body))
		}
		wf.inner.ServeHTTP(w, req)
	}
	serve(r.Context(), w)
	if hit(wf.site(wireDupDomain, endpoint, idx), wf.cfg.DupOneInN) {
		// Retransmit racing a slow ack: the handler hears the same request
		// twice, the client hears only the first answer. At-most-once
		// crediting must make the replay a no-op. The replay's sender has
		// already hung up, so its context is done: a held lease request
		// answers after one attempt instead of parking nobody's connection.
		wf.duped.Add(1)
		hungUp, cancel := context.WithCancel(r.Context())
		cancel()
		serve(hungUp, discardWriter{})
	}
}

// discardWriter swallows the duplicate delivery's response.
type discardWriter struct{}

func (discardWriter) Header() http.Header         { return make(http.Header) }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}
