package core

// The concurrent query plane: a coalescing scheduler that folds a window of
// in-flight queries into one multi-query symbolic pass (RunQueryBatch), in
// front of an epoch-keyed answer cache. Callers go through SubmitQuery;
// RunQuery remains the uncached single-query path underneath.
//
// Concurrency model: passes themselves are serialized — the first submitter
// whose window has no leader becomes the leader, drains the pending window
// (repeatedly, so queries arriving during a pass form the next batch), and
// signals every waiter. The controller's phase pipeline is not concurrent-
// safe, so one pass at a time is a correctness requirement, not a tuning
// choice; throughput comes from batching, slicing, and the cache. Epoch
// advances (ApplyDelta / ComputeDataPlane) must not overlap submitted
// queries — the public s2.Verifier enforces that with an RWMutex.

import (
	"errors"
	"strconv"
	"strings"

	"s2/internal/dataplane"
)

// maxQueryBatch bounds the queries folded into one symbolic pass, keeping
// the per-worker wavefront (one slot per tagged source) from ballooning
// under pathological bursts. Overflow simply becomes another pass.
const maxQueryBatch = 32

// queryJob is one submitted query waiting on the scheduler.
type queryJob struct {
	q            *dataplane.Query
	constrainSrc bool
	fp           uint64

	// Results, valid once done is closed.
	col   *dataplane.Collector
	epoch uint64
	err   error
	done  chan struct{}
}

// SubmitQuery answers q through the concurrent query plane: epoch-keyed
// cache first, then the coalescing window. The returned collector is
// byte-identical (under serialization) to a cold solo RunQuery of the same
// query, and the returned epoch is the verified-state epoch the answer was
// computed against. Cached answers share one Collector — safe, because
// Collector reads and the controller engine's operations are concurrent-
// safe, and the controller engine is never garbage-collected.
func (c *Controller) SubmitQuery(q *dataplane.Query, constrainSrc bool) (*dataplane.Collector, uint64, error) {
	cols, epochs, err := c.SubmitQueryBatch([]*dataplane.Query{q}, constrainSrc)
	if err != nil {
		return nil, 0, err
	}
	return cols[0], epochs[0], nil
}

// SubmitQueryBatch submits a set of queries into one scheduling window:
// cache hits answer immediately, the rest enter the window together so the
// scheduler can fold the batch-compatible ones into shared passes. Answers
// come back positionally with the epoch each was computed against.
func (c *Controller) SubmitQueryBatch(qs []*dataplane.Query, constrainSrc bool) ([]*dataplane.Collector, []uint64, error) {
	if c.closed.Load() {
		return nil, nil, errors.New("core: controller is closed")
	}
	if len(qs) == 0 {
		return nil, nil, errors.New("core: empty query batch")
	}
	for _, q := range qs {
		if err := q.Validate(c.layout); err != nil {
			return nil, nil, err
		}
	}
	cols := make([]*dataplane.Collector, len(qs))
	epochs := make([]uint64, len(qs))
	jobs := make([]*queryJob, len(qs))
	var pending []*queryJob
	for i, q := range qs {
		fp := q.Fingerprint(constrainSrc)
		if col, epoch, ok := c.cachedQuery(fp); ok {
			cols[i], epochs[i] = col, epoch
			continue
		}
		j := &queryJob{q: q, constrainSrc: constrainSrc, fp: fp, done: make(chan struct{})}
		jobs[i] = j
		pending = append(pending, j)
	}
	if len(pending) > 0 {
		c.qpMu.Lock()
		c.qpPending = append(c.qpPending, pending...)
		lead := !c.qpLeader
		if lead {
			c.qpLeader = true
		}
		c.qpMu.Unlock()
		if lead {
			c.runQueryWindows()
		}
	}
	var firstErr error
	for i, j := range jobs {
		if j == nil {
			continue
		}
		<-j.done
		if j.err != nil && firstErr == nil {
			firstErr = j.err
		}
		cols[i], epochs[i] = j.col, j.epoch
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return cols, epochs, nil
}

// runQueryWindows is the leader loop: drain the pending window, run it,
// repeat until no queries arrived during the last pass.
func (c *Controller) runQueryWindows() {
	for {
		c.qpMu.Lock()
		window := c.qpPending
		c.qpPending = nil
		if len(window) == 0 {
			c.qpLeader = false
			c.qpMu.Unlock()
			return
		}
		c.qpMu.Unlock()
		c.runQueryWindow(window)
	}
}

// runQueryWindow partitions one window into batch-compatible groups (same
// transit set, hop budget, and source-constraint mode) and runs each group
// as a single pass, in first-arrival order.
func (c *Controller) runQueryWindow(window []*queryJob) {
	groups := map[string][]*queryJob{}
	var order []string
	for _, j := range window {
		key := queryCompatKey(j.q, j.constrainSrc)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], j)
	}
	for _, key := range order {
		c.runQueryGroup(groups[key])
	}
}

// queryCompatKey buckets queries that RunQueryBatch may share a pass:
// dataplane.BatchCompatible (hop budget + transit sequence) plus the
// injection-side constrainSrc mode.
func queryCompatKey(q *dataplane.Query, constrainSrc bool) string {
	return strconv.FormatBool(constrainSrc) + "|" +
		strconv.Itoa(q.EffectiveMaxHops()) + "|" +
		strings.Join(q.Transits, "\x1f")
}

// runQueryGroup collapses identical fingerprints inside the group (one
// representative runs, duplicates share its answer), then executes the
// representatives in maxQueryBatch-sized passes.
func (c *Controller) runQueryGroup(jobs []*queryJob) {
	var reps []*queryJob
	repOf := map[uint64]*queryJob{}
	var dups []*queryJob
	for _, j := range jobs {
		if repOf[j.fp] != nil {
			dups = append(dups, j)
			continue
		}
		repOf[j.fp] = j
		reps = append(reps, j)
	}
	for start := 0; start < len(reps); start += maxQueryBatch {
		end := min(start+maxQueryBatch, len(reps))
		c.runQueryChunk(reps[start:end])
	}
	for _, j := range dups {
		r := repOf[j.fp]
		j.col, j.epoch, j.err = r.col, r.epoch, r.err
		close(j.done)
	}
}

// runQueryChunk runs one pass for up to maxQueryBatch representatives,
// stores the answers in the epoch cache, and wakes the waiters.
func (c *Controller) runQueryChunk(jobs []*queryJob) {
	// A prior window may have cached an identical query meanwhile.
	live := jobs[:0:0]
	for _, j := range jobs {
		if col, epoch, ok := c.cachedQuery(j.fp); ok {
			j.col, j.epoch = col, epoch
			close(j.done)
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	epoch := c.Epoch()
	qs := make([]*dataplane.Query, len(live))
	for i, j := range live {
		qs[i] = j.q
	}
	cols, err := c.RunQueryBatch(qs, live[0].constrainSrc)
	for i, j := range live {
		if err != nil {
			j.err = err
		} else {
			j.col, j.epoch = cols[i], epoch
			c.storeCachedQuery(j.fp, epoch, cols[i])
		}
		close(j.done)
	}
}

// cachedQuery looks up a query answer for the CURRENT epoch. A stale map
// (first lookup after an epoch advance) is dropped on sight, so a hit can
// never serve a pre-delta answer.
func (c *Controller) cachedQuery(fp uint64) (*dataplane.Collector, uint64, bool) {
	if c.opts.DisableQueryCache {
		return nil, 0, false
	}
	epoch := c.Epoch()
	c.qcMu.Lock()
	defer c.qcMu.Unlock()
	if c.qcEpoch != epoch {
		c.qcache = nil
		c.qcEpoch = epoch
		return nil, 0, false
	}
	col, ok := c.qcache[fp]
	if !ok {
		return nil, 0, false
	}
	if c.reg != nil {
		c.reg.Counter(MetricQueryCacheHits,
			"Query answers served from the epoch-keyed outcome cache.").Inc()
	}
	return col, epoch, true
}

// storeCachedQuery records an answer under the epoch it was computed
// against; if the cache has moved to a newer epoch the answer is stale and
// silently dropped.
func (c *Controller) storeCachedQuery(fp uint64, epoch uint64, col *dataplane.Collector) {
	if c.opts.DisableQueryCache || col == nil {
		return
	}
	c.qcMu.Lock()
	defer c.qcMu.Unlock()
	if c.qcEpoch != epoch {
		return
	}
	if c.qcache == nil {
		c.qcache = map[uint64]*dataplane.Collector{}
	}
	c.qcache[fp] = col
}

// purgeQueryCache drops every cached answer; bumpEpoch calls it so the
// drop is atomic with the epoch advance.
func (c *Controller) purgeQueryCache() {
	c.qcMu.Lock()
	c.qcache = nil
	c.qcEpoch = c.epoch.Load()
	c.qcMu.Unlock()
}

// queryCountBuckets suit small-integer distributions (batch sizes, worker
// counts) better than the default latency buckets.
var queryCountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// observeQueryPass records one symbolic pass: the pass counter (the
// denominator proving batching executes fewer injection phases than
// sequential), the coalesced batch size, and the post-slicing worker count.
func (c *Controller) observeQueryPass(batch int, ids []int) {
	if c.reg == nil {
		return
	}
	c.reg.Counter(MetricQueryPasses,
		"Symbolic query passes (injection phases) executed.").Inc()
	c.reg.Histogram(MetricQueryBatchSize,
		"Queries coalesced into one symbolic pass.", queryCountBuckets).
		Observe(float64(batch))
	sliced := len(ids)
	if ids == nil {
		c.wmu.RLock()
		sliced = len(c.workers)
		c.wmu.RUnlock()
	}
	c.reg.Histogram(MetricQuerySlicedWorkers,
		"Workers involved per query pass after intent-based slicing.", queryCountBuckets).
		Observe(float64(sliced))
}
