package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
	gcCPU       = "/cpu/classes/gc/total:cpu-seconds"
	totalCPU    = "/cpu/classes/total:cpu-seconds"
)

func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() float64 { return readMetrics(heapAllocs)[0] }

// heapSampler polls the Go heap (live and not yet collected objects) and
// keeps the highest value seen since the last reset.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := uint64(readMetrics(heapObjects)[0])
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset starts a new peak window at the current heap size.
func (h *heapSampler) reset() {
	h.peak.Store(0)
	h.sample()
}

// peakMB samples once more and returns the window's peak in MiB.
func (h *heapSampler) peakMB() float64 {
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// gcWindow measures the Go collector's cost over an interval.
type gcWindow struct {
	pauseNs      uint64
	gcCPU, total float64
}

func gcMark() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := readMetrics(gcCPU, totalCPU)
	return gcWindow{pauseNs: ms.PauseTotalNs, gcCPU: m[0], total: m[1]}
}

// since returns the GC CPU fraction and the stop-the-world pause total in
// milliseconds between w and now.
func (w gcWindow) since() (cpuFraction, pauseMs float64) {
	now := gcMark()
	if d := now.total - w.total; d > 0 {
		cpuFraction = (now.gcCPU - w.gcCPU) / d
	}
	return cpuFraction, float64(now.pauseNs-w.pauseNs) / 1e6
}
