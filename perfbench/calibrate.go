package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The machine this benchmark runs on is shared, and its speed drifts by
// 10-40% over tens of seconds. Wall-time metrics are therefore calibrated:
// a fixed probe kernel runs before every iteration, and a time t measured
// in a run whose median probe time is P is reported as t × sqrt(probeRef / P).
// The square root is measured, not assumed: across runs on a loaded
// machine, the workloads slowed by the probe's slowdown to a power between
// 0.46 (fleet-fuzz, a third of whose wall is fixed-length poll sleeps) and
// 1.0 (campaign-kv), and 0.5 gave the smallest worst-case spread between
// runs. The probe shares no code with the program, so a change to the
// program cannot move it; only the machine can.

// probeRef is the probe time that calibrated metrics are scaled to: about
// the probe's time on the 2-CPU machine the benchmark was sized on.
const probeRef = 10 * time.Millisecond

// probeBuf is the buffer one probe goroutine copies and hashes: larger than
// L2, as the engine's device images are.
const probeBuf = 1 << 20

var probeBufs = func() (b [engineWorkers][2][]byte) {
	for g := range b {
		b[g] = [2][]byte{make([]byte, probeBuf), make([]byte, probeBuf)}
	}
	return b
}()

// speedProbe collects garbage left by the previous iteration, then runs the
// probe kernel on engineWorkers goroutines at once and returns the median
// wall time of three runs.
func speedProbe() time.Duration {
	runtime.GC()
	var times []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		sums := make([]uint64, engineWorkers)
		var wg sync.WaitGroup
		for g := range sums {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sums[g] = probeKernel(probeBufs[g][0], probeBufs[g][1])
			}(g)
		}
		wg.Wait()
		times = append(times, float64(time.Since(t0)))
	}
	return time.Duration(median(times))
}

// probeKernel mixes the engine's kinds of work: bulk copies, a hash over
// the copy, bursts of small allocations into maps, path-like string keys,
// and sorting. Across runs on a loaded machine, its median time tracked the
// campaign-kv rate with a correlation of 0.98, where a plain memory copy
// tracked it at 0.87.
func probeKernel(a, b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for round := 0; round < 8; round++ {
		copy(b, a)
		for i := 0; i+8 <= len(b); i += 8 {
			w := uint64(b[i]) | uint64(b[i+1])<<8 | uint64(b[i+2])<<16 | uint64(b[i+3])<<24
			h = (h ^ w) * 1099511628211
		}
		a[h%probeBuf] = byte(h)
	}
	m := make(map[uint64][]byte)
	for i := uint64(0); i < 5000; i++ {
		m[i*7919^h] = make([]byte, 64)
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	paths := make(map[string]int)
	for i := 0; i < 10000; i++ {
		paths["/dir"+strconv.Itoa(i%13)+"/file"+strconv.Itoa(i)] = i
	}
	names := make([]string, 0, len(paths))
	for p := range paths {
		names = append(names, p)
	}
	sort.Strings(names)
	return h ^ keys[0] ^ uint64(len(names[0]))
}
