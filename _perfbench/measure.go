package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// percentile is the linearly interpolated q-quantile (0 ≤ q ≤ 1) of xs,
// the estimator Python's statistics.quantiles uses with method="inclusive".
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// digest is the correctness fingerprint every op's output is compared by.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// stripElapsed drops reproduce's wall-clock "reproduction completed in"
// line, the one line of the paper report that is not a function of the
// seed.
func stripElapsed(report string) string {
	lines := strings.Split(report, "\n")
	out := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "reproduction completed in ") {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// Runtime metric names read through runtime/metrics.
const (
	rtHeapObjects = "/memory/classes/heap/objects:bytes"
	rtAllocBytes  = "/gc/heap/allocs:bytes"
	rtGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// runtimeCounters snapshots the cumulative allocation and CPU counters.
type runtimeCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntimeCounters() runtimeCounters {
	s := []rtmetrics.Sample{{Name: rtAllocBytes}, {Name: rtGCCPU}, {Name: rtTotalCPU}}
	rtmetrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapSampler polls the live-plus-unswept heap every period and keeps the
// peak since the last take. runtime/metrics reads do not stop the world,
// so a 5 ms period costs well under a percent of one CPU.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []rtmetrics.Sample{{Name: rtHeapObjects}}
	rtmetrics.Read(s)
	h.mu.Lock()
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// take returns the peak heap in MiB since the previous take and starts a
// new window from the current heap.
func (h *heapSampler) take() float64 {
	h.sample()
	h.mu.Lock()
	peak := h.peak
	h.peak = 0
	h.mu.Unlock()
	h.sample()
	return float64(peak) / (1 << 20)
}

// Stop ends sampling and waits for the sampler goroutine.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}
