package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// reportable reports whether the p-quantile of n samples has at least ten
// samples beyond it — the rule for which tail percentile a timing may be
// reported at.
func reportable(n int, p float64) bool {
	rank := int(math.Ceil(p * float64(n)))
	return n > 0 && n-rank >= 10
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts attempted and failed operations. A wrong answer, an error
// and a non-200 response all count as failed. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
}

// record counts one operation; reason is "" when it succeeded.
func (t *tally) record(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// failures copies the count of each failure reason.
func (t *tally) failures() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.reasons))
	for reason, n := range t.reasons {
		out[reason] = n
	}
	return out
}

// errorRate is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) errorRate() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// read is one completed read of the serving workload.
type read struct {
	due, sent, done time.Time
	fingerprints    []string // one per query the read asks
	epoch           uint64
	ok              bool // a 200 reply that carried an epoch
}

// latency is the read's time from when it was due to its reply, so a stall
// also charges the reads that queued behind it.
func (r read) latency() time.Duration { return r.done.Sub(r.due) }

// classify splits reads into cache hits and misses by (epoch, fingerprint):
// taking the successful reads in the order they were sent, a read is a miss
// if it asks a query whose fingerprint no earlier read asked at the epoch
// it was answered at, and a hit otherwise. Failed reads are neither.
func classify(reads []read) (hits, misses []read) {
	order := make([]read, 0, len(reads))
	for _, r := range reads {
		if r.ok {
			order = append(order, r)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].sent.Before(order[j].sent) })
	type key struct {
		epoch uint64
		fp    string
	}
	seen := map[key]bool{}
	for _, r := range order {
		miss := false
		for _, fp := range r.fingerprints {
			k := key{r.epoch, fp}
			miss = miss || !seen[k]
			seen[k] = true
		}
		if miss {
			misses = append(misses, r)
		} else {
			hits = append(hits, r)
		}
	}
	return hits, misses
}

// schedule is an open-loop arrival schedule: operation i is due at
// start + offset + i·interval, whether or not earlier ones have finished.
type schedule struct {
	start    time.Time
	offset   time.Duration
	interval time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(s.offset + time.Duration(i)*s.interval)
}

// count is how many operations fall due before end.
func (s schedule) count(end time.Time) int {
	span := end.Sub(s.start) - s.offset
	if span <= 0 {
		return 0
	}
	return int((span + s.interval - 1) / s.interval)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
