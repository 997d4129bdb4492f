package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"

	"repro/internal/bgp"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1); xs
// need not be sorted and is not modified. It panics on an empty sample: a
// caller with no samples has nothing to report and must say so itself.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile picks the upper percentile a sample of n step latencies
// supports: the highest of p90, p75, p50 that leaves at least ten samples
// beyond it. The steps are quantised rather than continuous so that a run
// which fits a few more or fewer steps into its window still reports the
// same percentile.
func tailPercentile(n int) float64 {
	for _, percent := range []int{90, 75} {
		if n*(100-percent) >= 10*100 {
			return float64(percent) / 100
		}
	}
	return 0.50
}

// stateHash folds BestFor(prefix, router) over the given prefixes and all
// n routers into one FNV-1a value. Under the modified protocol the best
// route vector at quiescence is unique (Lemma 7.4), so the hash does not
// depend on substrate, codec, delays or faults.
func stateHash(prefixes []uint32, n int, best func(prefix uint32, u bgp.NodeID) bgp.PathID) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, p := range prefixes {
		for u := 0; u < n; u++ {
			v := uint32(best(p, bgp.NodeID(u)) + 1)
			b[0], b[1], b[2], b[3] = byte(p), byte(p>>8), byte(p>>16), byte(p>>24)
			b[4], b[5], b[6], b[7] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			b[8], b[9], b[10], b[11] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// heapLiveMB is HeapAlloc after a full collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mallocs is the cumulative heap-object allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
