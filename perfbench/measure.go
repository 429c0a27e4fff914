package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// clock accumulates the wall and process CPU time of the timed sections of
// a phase. Everything outside a lap — correctness checks, teardown of
// loopback workers, trace bookkeeping — is excluded.
type clock struct {
	wall, cpu time.Duration
}

type lap struct {
	c    *clock
	t0   time.Time
	cpu0 time.Duration
}

func (c *clock) start() lap { return lap{c: c, t0: time.Now(), cpu0: cpuTime()} }

// stop closes the lap, adds it to the clock and returns its wall time.
func (l lap) stop() time.Duration {
	d := time.Since(l.t0)
	l.c.wall += d
	l.c.cpu += cpuTime() - l.cpu0
	return d
}

// cpuTime is the process's user+sys CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples the live heap until stopped and keeps the maximum.
type heapPeak struct {
	quit chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// reset starts a new peak from the current heap.
func (h *heapPeak) reset() { h.peak.Store(0) }

// max returns the peak heap in bytes since the last reset.
func (h *heapPeak) max() uint64 { return h.peak.Load() }

// stop ends sampling and waits for the sampler to exit.
func (h *heapPeak) stop() {
	close(h.quit)
	<-h.done
}

// goRuntime is a reading of the runtime counters behind the go.* metrics.
type goRuntime struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goRuntime{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

func (a goRuntime) sub(b goRuntime) goRuntime {
	return goRuntime{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest is a short stable identity for a rendered fingerprint or census.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
