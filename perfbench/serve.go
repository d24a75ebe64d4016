package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"s2"
	"s2/internal/core"
	"s2/internal/obs"
	"s2/internal/serve"
)

const (
	// readInterval paces the open-loop read stream (20 reads/s): sparse
	// enough that at most one read queues behind a delta, so the misses
	// that follow each write measure query passes, not the write.
	readInterval = 50 * time.Millisecond
	// writeInterval paces the open-loop write stream (one delta a second).
	writeInterval = time.Second
	// writeOffset puts each write 10ms after a batch read is due, so the
	// epoch a write starts has its single-query misses first and its
	// batch miss last.
	writeOffset = (2*batchEvery-1)*readInterval + 10*time.Millisecond
	// batchEvery makes every fifth read the whole mix as one batch.
	batchEvery = 5
	// maxInflight bounds the reads in flight; once reached, the generator
	// waits, and the wait shows as generator lag.
	maxInflight = 64
	// spinWindow is how long before a due time the generator stops
	// sleeping and yields instead: timer wake-ups here run up to about a
	// millisecond late, which would otherwise add to every latency.
	spinWindow = time.Millisecond
)

// serveBench drives a resident FatTree8 daemon: serve.New over a verifier
// with a metrics registry, as s2serve runs it.
type serveBench struct {
	cfg   runConfig
	in    *inputs
	refs  [2]*reference
	tr    *tracer
	tally *tally
	reg   *obs.Registry
	v     *s2.Verifier
	d     *daemon
	heap  *heapSampler
	peaks []float64 // heap peak of each write interval of the timed phase
	boot  uint64    // epoch of the boot verification; answers alternate state from it
	start time.Time // first due time of the timed phase

	mu     sync.Mutex
	reads  []read
	deltas []time.Duration
	lags   []time.Duration
	dirty  int
	total  int
}

func runServe(cfg runConfig) (*result, error) {
	b := &serveBench{cfg: cfg, tally: &tally{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	b.heap = startHeapSampler(5 * time.Millisecond)
	defer b.heap.close()
	b.d = startDaemon(b.tr)
	defer b.d.close()
	defer func() {
		if b.v != nil {
			b.v.Close()
		}
	}()

	// Boot the daemon several times; the last one serves the timed phase.
	// The reference answers are computed between the first and the second
	// half of the boots, and as many boots again follow the timed phase:
	// the host has slow spells lasting seconds, and boots spread over the
	// run keep one spell from deciding cold_verify_s and setup_s. The
	// traced run traces every other boot to measure its own overhead.
	var setups, colds, tracedColds, untracedColds []float64
	var layers []map[string]float64
	var refSeconds float64
	var aps []observation
	boot := func(r int) error {
		var tr *tracer
		var l map[string]float64
		if b.cfg.trace && r%2 == 0 && r < setupRounds {
			tr, l = b.tr, map[string]float64{}
			layers = append(layers, l)
		}
		start := time.Now()
		cold, ap, err := b.bootDaemon(tr, uint64(1<<40+r), l)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		colds = append(colds, cold.Seconds())
		if tr != nil {
			tracedColds = append(tracedColds, cold.Seconds())
		} else {
			untracedColds = append(untracedColds, cold.Seconds())
		}
		aps = append(aps, observation{allPairs: true, got: newAnswer(nil, ap.Unreached, ap.Violations)})
		return nil
	}
	for r := 0; r < setupRounds; r++ {
		if r == setupRounds/2 {
			start := time.Now()
			refs, err := references(b.in)
			if err != nil {
				return nil, err
			}
			b.refs = refs
			refSeconds = time.Since(start).Seconds()
		}
		if err := boot(r); err != nil {
			return nil, err
		}
	}

	before := b.reg.Snapshot()
	gc := gcMark()
	b.drive()
	gcFrac, gcPause := gc.since()
	after := b.reg.Snapshot()

	for r := setupRounds; r < 2*setupRounds; r++ {
		if err := boot(r); err != nil {
			return nil, err
		}
	}
	checkAll(b.tally, b.refs, aps)

	res := newResult(b.tally)
	res.extra["verifier_seed"] = b.in.verifierSeed
	res.extra["reference_s"] = refSeconds
	res.extra["delta_target"] = b.in.target.name
	res.extra["boot_epoch"] = b.boot
	hits, misses := classify(b.reads)
	res.extra["reads"] = len(b.reads)
	res.extra["writes"] = len(b.deltas)
	if !cfg.trace {
		res.set("cold_verify_s", median(colds), len(colds))
		res.set("peak_heap_mb", median(b.peaks), len(b.peaks))
		res.set("setup_s", median(setups), len(setups))
		res.latency("query_hit", latencies(hits), true)
		res.latency("query_miss", latencies(misses), false)
		res.latency("delta", b.deltas, false)
		return res, saveJSON(cfg.outPath("samples.json"), map[string]any{
			"query_hit": readSamples(b.start, hits), "query_miss": readSamples(b.start, misses),
			"delta_ms": millis(b.deltas), "cold_verify_s": colds, "setup_s": setups,
		})
	}

	for _, name := range perLayerNames() {
		res.set(name, 0, 0)
	}
	samples := map[string][]float64{}
	for _, l := range layers {
		for k, v := range l {
			samples[k] = append(samples[k], v)
		}
	}
	for k, xs := range samples {
		res.set(k, median(xs), len(xs))
	}
	res.set("go.gc_cpu_fraction", gcFrac, 1)
	res.set("go.gc_pause_ms", gcPause, 1)
	res.set("harness.trace_overhead_ratio", median(tracedColds)/median(untracedColds), len(colds))
	handlerMetrics(res, b.tr.snapshot())
	for k, x := range queryPlaneCounters(before, after) {
		res.set(k, x, 1)
	}
	if b.total > 0 {
		res.set("core.delta.dirty_shard_ratio", float64(b.dirty)/float64(b.total), len(b.deltas))
	}
	res.extra["gen_lag_p90_ms"] = percentile(millis(b.lags), 0.9)
	return res, b.tr.write(cfg.outPath("spans.json"))
}

func latencies(rs []read) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.latency()
	}
	return out
}

// readSamples lists reads as offsets from t0 in milliseconds, with how late
// each was sent, its latency, epoch and number of queries.
func readSamples(t0 time.Time, rs []read) []map[string]any {
	out := make([]map[string]any, len(rs))
	for i, r := range rs {
		out[i] = map[string]any{"due_ms": ms(r.due.Sub(t0)), "lag_ms": ms(r.sent.Sub(r.due)),
			"latency_ms": ms(r.latency()), "epoch": r.epoch, "queries": len(r.fingerprints)}
	}
	return out
}

// bootDaemon closes the previous verifier, generates the inputs, verifies
// them cold and serves the result. It returns the cold verification's time
// and its all-pairs report.
func (b *serveBench) bootDaemon(tr *tracer, req uint64, layers map[string]float64) (time.Duration, *s2.ReachabilityReport, error) {
	if b.v != nil {
		b.v.Close()
		b.v = nil
	}
	texts, err := fatTree8()
	if err != nil {
		return 0, nil, err
	}
	if b.in, err = newInputs(texts, b.cfg.seed); err != nil {
		return 0, nil, err
	}
	b.reg = obs.NewRegistry()
	opts := s2.Options{Workers: 4, Shards: 8, Seed: b.in.verifierSeed, Metrics: b.reg}
	start := time.Now()
	v, ap, spans, err := verifyCold(texts, opts, tr, req, layers)
	if err != nil {
		return 0, nil, err
	}
	cold := time.Since(start)
	b.v = v
	if tr != nil {
		if err := countersInto(layers, v); err != nil {
			return 0, nil, err
		}
		layers["core.unattributed_ms"] = ms(cold - spans)
		layers["harness.iteration_ms"] = ms(cold)
	}
	b.d.serve(serve.New(v, serve.Options{Registry: b.reg}).Handler())
	var epoch struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := b.d.call("GET", "/v1/epoch", nil, &epoch, req, 0); err != nil {
		return 0, nil, fmt.Errorf("boot: %w", err)
	}
	b.boot = epoch.Epoch
	return cold, ap, nil
}

// drive runs the two open-loop streams for the timed phase and waits for
// every request to finish.
func (b *serveBench) drive() {
	start := time.Now().Add(10 * time.Millisecond)
	b.start = start
	end := start.Add(b.cfg.duration())
	reads := schedule{start: start, interval: readInterval}
	writes := schedule{start: start, offset: writeOffset, interval: writeInterval}

	// The read plan is drawn up front from the seed: a query of the mix
	// per read, -1 for the whole mix as one batch.
	rng := rand.New(rand.NewSource(b.cfg.seed))
	plan := make([]int, reads.count(end))
	for i := range plan {
		plan[i] = b.in.mix[rng.Intn(len(b.in.mix))]
		if i%batchEvery == batchEvery-1 {
			plan[i] = -1
		}
	}

	// The writer also closes a heap-peak window at every write, so
	// peak_heap_mb is the median peak of one write and the reads around
	// it rather than a single maximum.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.heap.reset()
		for j := 0; j < writes.count(end); j++ {
			due := writes.due(j)
			waitUntil(due)
			if j > 0 {
				b.peaks = append(b.peaks, b.heap.peakMB())
				b.heap.reset()
			}
			b.write(j, due)
		}
	}()
	sem := make(chan struct{}, maxInflight)
	for i, qi := range plan {
		due := reads.due(i)
		waitUntil(due)
		sem <- struct{}{}
		wg.Add(1)
		go func(i, qi int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			b.read(i, qi, due)
		}(i, qi, due)
	}
	wg.Wait()
	b.peaks = append(b.peaks, b.heap.peakMB())
}

// waitUntil returns at t, sleeping until spinWindow before it.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// read sends read i (query qi, or the whole mix when qi < 0) and checks
// each answer against the reference for the config state of its epoch.
func (b *serveBench) read(i, qi int, due time.Time) {
	idx := []int{qi}
	if qi < 0 {
		idx = b.in.mix
	}
	req := uint64(i + 1)
	sent := time.Now()
	span := b.tr.open("client.read", 0, req)
	epoch, results, err := b.d.query(b.in.queries, idx, req, span)
	done := time.Now()
	b.tr.finish(span)

	reason := ""
	if err != nil {
		reason = err.Error()
	}
	for n, res := range results {
		state := b.stateOf(res.Epoch)
		if !newAnswer(res.Reached, nil, res.Violations).equal(b.refs[state].queries[idx[n]]) {
			reason = fmt.Sprintf("query %d (state %d) differs from the baseline", idx[n], state)
		}
	}
	b.tally.record(reason)
	b.mu.Lock()
	defer b.mu.Unlock()
	fps := make([]string, len(idx))
	for n, k := range idx {
		fps[n] = strconv.Itoa(k)
	}
	b.reads = append(b.reads, read{due: due, sent: sent, done: done,
		fingerprints: fps, epoch: epoch, ok: err == nil})
	b.lags = append(b.lags, sent.Sub(due))
}

// stateOf maps an epoch to its config state: writes alternate withdraw and
// re-announce, one epoch each, starting from the announced boot state.
func (b *serveBench) stateOf(epoch uint64) int { return int((epoch - b.boot) % 2) }

// write j withdraws the target's /24 (even j) or re-announces it (odd j).
func (b *serveBench) write(j int, due time.Time) {
	text := b.in.texts[b.in.target.name]
	if j%2 == 0 {
		text = withdrawn(b.in.texts, b.in.target)
	}
	req := uint64(1<<32 + j)
	sent := time.Now()
	span := b.tr.open("client.write", 0, req)
	rep, err := b.d.delta(b.in.target.name, text, req, span)
	done := time.Now()
	b.tr.finish(span)

	reason := ""
	want := b.boot + uint64(j) + 1
	switch {
	case err != nil:
		reason = err.Error()
	case rep.Epoch != want:
		reason = fmt.Sprintf("/v1/verify: epoch %d, want %d", rep.Epoch, want)
	}
	b.tally.record(reason)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lags = append(b.lags, sent.Sub(due))
	if reason == "" {
		b.deltas = append(b.deltas, done.Sub(due))
		b.dirty += rep.DirtyShards
		b.total += rep.TotalShards
	}
}

// queryPlaneCounters derives the query plane's per-layer metrics from two
// snapshots of a verifier's registry: symbolic passes run, the share of
// queries answered from the cache, and the queries coalesced per pass.
func queryPlaneCounters(before, after map[string]float64) map[string]float64 {
	delta := func(name string) float64 { return after[name] - before[name] }
	passes, hits := delta(core.MetricQueryPasses), delta(core.MetricQueryCacheHits)
	batched, batches := delta(core.MetricQueryBatchSize+"_sum"), delta(core.MetricQueryBatchSize+"_count")
	out := map[string]float64{"queryplane.passes": passes}
	if hits+batched > 0 {
		out["queryplane.cache_hit_ratio"] = hits / (hits + batched)
	}
	if batches > 0 {
		out["queryplane.mean_batch_size"] = batched / batches
	}
	return out
}
