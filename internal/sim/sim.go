// Package sim holds the pull cursors of S2's fixed-point engine (§3.1,
// Algorithm 1, lines 11–15): every node pulls route updates from each
// neighbor, local ("real") or on another worker (a "shadow" node whose
// pulls the worker relays through the sidecar in one batch per owner), and
// only asks for what changed since the version it last saw.
package sim

import "sync"

// PullState tracks the last version a puller has seen from one exporter,
// enabling delta pulls.
type PullState struct {
	Version uint64
	Seen    bool
}

// PullTracker holds pull states keyed by (puller, exporter). It is safe
// for concurrent use: workers gather pulls for many local nodes in
// parallel, and Get's create-on-miss would otherwise race. Each PullState
// itself is only touched by the one (puller, exporter) pair's gather task,
// so the returned pointer needs no further locking.
type PullTracker struct {
	mu sync.Mutex
	m  map[[2]string]*PullState
}

// NewPullTracker returns an empty tracker.
func NewPullTracker() *PullTracker {
	return &PullTracker{m: make(map[[2]string]*PullState)}
}

// Get returns the state for (puller, exporter), creating it on first use.
func (t *PullTracker) Get(puller, exporter string) *PullState {
	key := [2]string{puller, exporter}
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.m[key]
	if !ok {
		st = &PullState{}
		t.m[key] = st
	}
	return st
}

// Reset forgets all pull history (between prefix shards).
func (t *PullTracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[[2]string]*PullState)
}
