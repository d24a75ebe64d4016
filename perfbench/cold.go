package main

import (
	"fmt"
	"time"

	"s2"
	"s2/internal/config"
	"s2/internal/obs"
	"s2/internal/partition"
	"s2/internal/serve"
	"s2/internal/shard"
	"s2/internal/topology"
)

// coldSpec is a workload of repeated cold verifications.
type coldSpec struct {
	texts   func() (map[string]string, error)
	workers int
	shards  int
	tcp     bool // workers served over loopback TCP instead of in-process
}

const (
	// setupRounds is how often a run sets up, so setup_s is a median.
	setupRounds = 6
	// probeQueries is how many distinct queries each iteration's probe
	// asks per epoch; probeHits is how many cache-hitting repeats of them
	// follow their first (missing) asks.
	probeQueries = 3
	probeHits    = 20
	// layerRepeats is how often the traced run times the stand-alone
	// topology, partition and shard-planning calls.
	layerRepeats = 5
)

// observation is one checked answer: what the program said, and which
// config state and reference entry it must match.
type observation struct {
	allPairs bool
	query    int // index into inputs.queries when !allPairs
	state    int // 0 announced, 1 withdrawn
	got      answer
}

type coldBench struct {
	spec  coldSpec
	cfg   runConfig
	in    *inputs
	fleet *fleet
	d     *daemon
	tr    *tracer
	heap  *heapSampler
	tally *tally
}

// iteration is what one cold verification and its probe produced.
type iteration struct {
	cold       time.Duration
	peakMB     float64
	misses     []time.Duration
	hits       []time.Duration
	delta      time.Duration
	dirty      int // prefix shards the delta re-simulated
	shards     int // shards of the state after the delta
	obs        []observation
	layers     map[string]float64 // traced iterations only
	failReason string
}

func runCold(spec coldSpec, cfg runConfig) (*result, error) {
	b := &coldBench{spec: spec, cfg: cfg, tally: &tally{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	b.heap = startHeapSampler(2 * time.Millisecond)
	defer b.heap.close()
	b.d = startDaemon(b.tr)
	defer b.d.close()
	defer func() { b.fleet.stop() }()

	// Set up several times: inputs, the TCP workers, and one untimed
	// warm-up verification so lazy one-time costs are paid before timing.
	// The reference answers are computed once, outside timing and setup,
	// between the first and the second half of the setups: the host has
	// slow spells lasting seconds, and setups on both sides of the
	// reference keep one spell from deciding setup_s. The last setup stays.
	var setups []float64
	var warm []observation
	var refs [2]*reference
	var refSeconds float64
	for r := 0; r < setupRounds; r++ {
		if r == setupRounds/2 {
			start := time.Now()
			var err error
			if refs, err = references(b.in); err != nil {
				return nil, err
			}
			refSeconds = time.Since(start).Seconds()
		}
		b.fleet.stop()
		b.fleet = nil
		start := time.Now()
		texts, err := spec.texts()
		if err != nil {
			return nil, err
		}
		if b.in, err = newInputs(texts, cfg.seed); err != nil {
			return nil, err
		}
		if spec.tcp {
			if b.fleet, err = startFleet(spec.workers); err != nil {
				return nil, err
			}
		}
		it := b.iterate(0, nil)
		if it.failReason != "" {
			return nil, fmt.Errorf("warm-up verification: %s", it.failReason)
		}
		setups = append(setups, time.Since(start).Seconds())
		warm = append(warm, it.obs...)
	}
	checkAll(b.tally, refs, warm)

	// Timed phase. In the traced run every other iteration is traced, so
	// the run measures its own overhead against the untraced ones.
	var traced, untraced []iteration
	gc := gcMark()
	deadline := time.Now().Add(cfg.duration())
	for i := 1; time.Now().Before(deadline); i++ {
		var tr *tracer
		if cfg.trace && i%2 == 1 {
			tr = b.tr
		}
		it := b.iterate(i, tr)
		if it.failReason != "" {
			b.tally.record(it.failReason)
			continue
		}
		checkAll(b.tally, refs, it.obs)
		if tr != nil {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	gcFrac, gcPause := gc.since()

	res := newResult(b.tally)
	res.extra["verifier_seed"] = b.in.verifierSeed
	res.extra["reference_s"] = refSeconds
	res.extra["delta_target"] = b.in.target.name
	res.extra["iterations"] = len(traced) + len(untraced)
	if !cfg.trace {
		if err := b.endToEnd(res, untraced, setups); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.extra["traced_iterations"] = len(traced)
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced iteration completed")
	}
	for _, name := range perLayerNames() {
		res.set(name, 0, 0)
	}
	// Per iteration, the five spans plus core.unattributed_ms sum to the
	// wall time by construction; the residual's share says how much of the
	// wall time the spans leave unexplained.
	layerSamples := map[string][]float64{}
	var residual []float64
	dirty, shards := 0, 0
	for _, it := range traced {
		for k, v := range it.layers {
			layerSamples[k] = append(layerSamples[k], v)
		}
		residual = append(residual, it.layers["core.unattributed_ms"]/it.layers["harness.iteration_ms"])
		dirty, shards = dirty+it.dirty, shards+it.shards
	}
	if shards > 0 {
		res.set("core.delta.dirty_shard_ratio", float64(dirty)/float64(shards), len(traced))
	}
	res.extra["attribution_residual_share_median"] = median(residual)
	res.extra["attribution_residual_share_max"] = percentile(residual, 1)
	for k, xs := range layerSamples {
		res.set(k, median(xs), len(xs))
	}
	res.set("go.gc_cpu_fraction", gcFrac, 1)
	res.set("go.gc_pause_ms", gcPause, 1)
	handlerMetrics(res, b.tr.snapshot())
	if len(untraced) > 0 {
		res.set("harness.trace_overhead_ratio",
			median(coldSeconds(traced))/median(coldSeconds(untraced)), len(traced)+len(untraced))
	}
	if err := b.standaloneLayers(res); err != nil {
		return nil, err
	}
	if err := b.routeCount(res); err != nil {
		return nil, err
	}
	if err := b.tr.write(cfg.outPath("spans.json")); err != nil {
		return nil, err
	}
	return res, nil
}

func coldSeconds(its []iteration) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = it.cold.Seconds()
	}
	return out
}

// endToEnd sets the end-to-end metrics from the untraced iterations and
// saves every sample behind them.
func (b *coldBench) endToEnd(res *result, its []iteration, setups []float64) error {
	var cold, peak []float64
	var misses, hits, deltas []time.Duration
	for _, it := range its {
		cold = append(cold, it.cold.Seconds())
		peak = append(peak, it.peakMB)
		misses = append(misses, it.misses...)
		hits = append(hits, it.hits...)
		deltas = append(deltas, it.delta)
	}
	res.set("cold_verify_s", median(cold), len(cold))
	res.set("peak_heap_mb", median(peak), len(peak))
	res.set("setup_s", median(setups), len(setups))
	res.latency("query_hit", hits, true)
	res.latency("query_miss", misses, false)
	res.latency("delta", deltas, false)
	return saveJSON(b.cfg.outPath("samples.json"), map[string]any{
		"cold_verify_s": cold, "peak_heap_mb": peak, "setup_s": setups,
		"query_hit_ms": millis(hits), "query_miss_ms": millis(misses), "delta_ms": millis(deltas),
	})
}

func (b *coldBench) options() s2.Options {
	opts := s2.Options{Shards: b.spec.shards, Seed: b.in.verifierSeed}
	if b.fleet != nil {
		opts.WorkerAddrs = b.fleet.addrs
	} else {
		opts.Workers = b.spec.workers
	}
	return opts
}

// iterate runs one cold verification — LoadConfigs, NewVerifier,
// SimulateControlPlane, ComputeDataPlane, CheckAllPairs, Close — and,
// before Close, the probe of the verified state over HTTP. Only the cold
// sequence counts in the iteration's wall time; the probe is timed on its
// own.
func (b *coldBench) iterate(i int, tr *tracer) (it iteration) {
	req := uint64(i + 1)
	var layers map[string]float64
	if tr != nil {
		layers = map[string]float64{}
	}
	b.heap.reset()
	conns0, bytes0 := b.fleet.traffic()
	// The traced run gives every verifier a metrics registry, for the
	// query-plane counters its probe moves.
	opts := b.options()
	if b.cfg.trace {
		opts.Metrics = obs.NewRegistry()
	}
	start := time.Now()
	v, ap, spans, err := verifyCold(b.in.texts, opts, tr, req, layers)
	if err != nil {
		return iteration{failReason: err.Error()}
	}
	verified := time.Since(start)
	_, bytes1 := b.fleet.traffic()
	it.obs = append(it.obs, observation{allPairs: true, got: newAnswer(nil, ap.Unreached, ap.Violations)})
	if tr != nil {
		if err := countersInto(layers, v); err != nil {
			v.Close()
			return iteration{failReason: fmt.Sprintf("stats: %v", err)}
		}
		layers["sidecar.tcp_bytes"] = float64(bytes1 - bytes0)
	}

	before := opts.Metrics.Snapshot()
	if reason := b.probe(i, v, tr, &it); reason != "" {
		v.Close()
		return iteration{failReason: reason}
	}
	if tr != nil {
		for k, x := range queryPlaneCounters(before, opts.Metrics.Snapshot()) {
			layers[k] = x
		}
	}

	t0 := time.Now()
	v.Close()
	closed := time.Since(t0)
	it.cold = verified + closed
	it.peakMB = b.heap.peakMB()
	if tr != nil {
		tr.record("core.close", 0, req, t0, t0.Add(closed))
		conns1, _ := b.fleet.traffic()
		layers["sidecar.tcp_conns"] = float64(conns1 - conns0)
		layers["core.unattributed_ms"] = ms(it.cold - spans)
		layers["harness.iteration_ms"] = ms(it.cold)
		it.layers = layers
	}
	return it
}

// probe serves the verifier with the s2serve handler and asks it, over
// HTTP, probeQueries per-edge queries (cycling through every edge) once each — cache misses — then probeHits more times
// round-robin — hits — applies the withdrawal delta with /v1/configs and
// /v1/verify, and asks each query once more against the new epoch (misses
// again).
func (b *coldBench) probe(i int, v *s2.Verifier, tr *tracer, it *iteration) string {
	b.d.serve(serve.New(v, serve.Options{}).Handler())
	req := uint64(i + 1)
	var qis []int
	for k := 0; k < probeQueries; k++ {
		qis = append(qis, ((i*probeQueries+k)%b.in.perEdge+b.in.perEdge)%b.in.perEdge)
	}
	// ask checks that one query was answered at epoch want and records
	// its answer for the given state's reference.
	ask := func(qi, state int, want uint64) (time.Duration, error) {
		t0 := time.Now()
		span := tr.open("client.read", 0, req)
		epoch, results, err := b.d.query(b.in.queries, []int{qi}, req, span)
		tr.finish(span)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		if epoch != want {
			return d, fmt.Errorf("query answered at epoch %d, want %d", epoch, want)
		}
		it.obs = append(it.obs, observation{query: qi, state: state,
			got: newAnswer(results[0].Reached, nil, results[0].Violations)})
		return d, nil
	}
	epoch := v.Epoch()
	for _, qi := range qis {
		d, err := ask(qi, 0, epoch)
		if err != nil {
			return err.Error()
		}
		it.misses = append(it.misses, d)
	}
	for h := 0; h < probeHits; h++ {
		d, err := ask(qis[h%len(qis)], 0, epoch)
		if err != nil {
			return err.Error()
		}
		it.hits = append(it.hits, d)
	}
	t0 := time.Now()
	span := tr.open("client.write", 0, req)
	dr, err := b.d.delta(b.in.target.name, withdrawn(b.in.texts, b.in.target), req, span)
	tr.finish(span)
	it.delta = time.Since(t0)
	if err != nil {
		return fmt.Sprintf("delta: %v", err)
	}
	if dr.Epoch != epoch+1 {
		return fmt.Sprintf("delta: epoch %d after %d", dr.Epoch, epoch)
	}
	it.dirty, it.shards = dr.DirtyShards, dr.TotalShards
	for _, qi := range qis {
		d, err := ask(qi, 1, dr.Epoch)
		if err != nil {
			return err.Error()
		}
		it.misses = append(it.misses, d)
	}
	return ""
}

// verifyCold runs LoadConfigs → NewVerifier → SimulateControlPlane →
// ComputeDataPlane → CheckAllPairs and returns the resident verifier, the
// all-pairs report and the summed time of the five calls. With a tracer,
// each call is recorded as a span of operation req, and its duration and
// (from the control plane on) the heap it allocated go into layers.
func verifyCold(texts map[string]string, opts s2.Options, tr *tracer, req uint64,
	layers map[string]float64) (*s2.Verifier, *s2.ReachabilityReport, time.Duration, error) {
	var net *s2.Network
	var v *s2.Verifier
	var ap *s2.ReachabilityReport
	var spans time.Duration
	calls := []struct {
		name  string
		alloc bool
		call  func() error
	}{
		{"config.parse", false, func() (err error) { net, err = s2.LoadConfigs(texts); return }},
		{"core.new_verifier", false, func() (err error) { v, err = s2.NewVerifier(net, opts); return }},
		{"core.control_plane", true, func() error { return v.SimulateControlPlane() }},
		{"core.data_plane", true, func() error { _, err := v.ComputeDataPlane(); return err }},
		{"core.all_pairs", true, func() (err error) { ap, err = v.CheckAllPairs(); return }},
	}
	for _, c := range calls {
		var a0 float64
		if tr != nil && c.alloc {
			a0 = allocatedBytes()
		}
		t0 := time.Now()
		err := c.call()
		t1 := time.Now()
		spans += t1.Sub(t0)
		if err != nil {
			if v != nil {
				v.Close()
			}
			return nil, nil, 0, fmt.Errorf("%s: %w", c.name, err)
		}
		if tr != nil {
			tr.record(c.name, 0, req, t0, t1)
			layers[c.name+"_ms"] = ms(t1.Sub(t0))
			if c.alloc {
				layers[c.name+".alloc_mb"] = (allocatedBytes() - a0) / (1 << 20)
			}
		}
	}
	return v, ap, spans, nil
}

// countersInto reads the counters the verifier exposes after a cold
// verification: cross-worker route pulls and packet deliveries, the
// modelled per-worker peak and the BDD node tables.
func countersInto(layers map[string]float64, v *s2.Verifier) error {
	stats, err := v.Stats()
	if err != nil {
		return err
	}
	var pulls, packets int64
	for _, s := range stats {
		pulls += s.RoutePulls
		packets += s.PacketsIn
	}
	peak, err := v.PeakMemoryBytes()
	if err != nil {
		return err
	}
	nodes := 0
	for _, w := range v.AttributionReport().Workers {
		nodes += w.BDDNodes
	}
	layers["sidecar.route_pulls"] = float64(pulls)
	layers["sidecar.packets_in"] = float64(packets)
	layers["core.model_peak_mb"] = float64(peak) / (1 << 20)
	layers["bdd.nodes"] = float64(nodes)
	return nil
}

// standaloneLayers times the layers NewVerifier and SimulateControlPlane
// run internally — topology derivation, METIS partitioning and shard
// planning — by calling them directly on the same snapshot.
func (b *coldBench) standaloneLayers(res *result) error {
	keyed := make(map[string]string, len(b.in.texts))
	for name, text := range b.in.texts {
		keyed[name+".cfg"] = text
	}
	snap, err := config.ParseTexts(keyed)
	if err != nil {
		return err
	}
	var topo, metis, plan []float64
	for r := 0; r < layerRepeats; r++ {
		t0 := time.Now()
		net, err := topology.Build(snap)
		if err != nil {
			return err
		}
		t1 := time.Now()
		g := net.Graph(nil)
		t2 := time.Now()
		if _, err := partition.Partition(g, b.spec.workers, partition.Metis, b.in.verifierSeed); err != nil {
			return err
		}
		t3 := time.Now()
		if _, err := shard.MakeShards(shard.BuildDPDG(snap), b.spec.shards, b.in.verifierSeed); err != nil {
			return err
		}
		t4 := time.Now()
		req := uint64(1<<32 + r)
		b.tr.record("topology.build", 0, req, t0, t1)
		b.tr.record("partition.metis", 0, req, t2, t3)
		b.tr.record("shard.plan", 0, req, t3, t4)
		topo = append(topo, ms(t1.Sub(t0)))
		metis = append(metis, ms(t3.Sub(t2)))
		plan = append(plan, ms(t4.Sub(t3)))
	}
	res.set("topology.build_ms", median(topo), len(topo))
	res.set("partition.metis_ms", median(metis), len(metis))
	res.set("shard.plan_ms", median(plan), len(plan))
	return nil
}

// routeCount runs one extra, untimed verification that keeps its RIBs and
// counts the routes (RouteCount needs KeepRIBs, which the timed
// iterations leave off as the s2 CLI does).
func (b *coldBench) routeCount(res *result) error {
	net, err := s2.LoadConfigs(b.in.texts)
	if err != nil {
		return err
	}
	opts := b.options()
	opts.KeepRIBs = true
	v, err := s2.NewVerifier(net, opts)
	if err != nil {
		return err
	}
	defer v.Close()
	if _, err := v.ComputeDataPlane(); err != nil {
		return err
	}
	n, err := v.RouteCount()
	if err != nil {
		return err
	}
	res.set("bgp.routes", float64(n), 1)
	return nil
}

// checkAll compares observations with the reference answers.
func checkAll(t *tally, refs [2]*reference, obs []observation) {
	for _, o := range obs {
		want := refs[o.state].allPairs
		what := "all-pairs"
		if !o.allPairs {
			want = refs[o.state].queries[o.query]
			what = fmt.Sprintf("query %d", o.query)
		}
		if o.got.equal(want) {
			t.record("")
		} else {
			t.record(fmt.Sprintf("%s (state %d) differs from the baseline", what, o.state))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
