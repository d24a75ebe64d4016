// Fleet health plane: the controller samples every registry metric plus
// per-worker vitals (shard/round progress, BDD nodes, GC pause p99, RSS,
// goroutines) into a bounded time-series ring on the heartbeat cadence,
// scores per-round progress skew to flag stragglers — the sensor the
// ROADMAP's work-stealing item will act on — and harvests pprof profiles
// from workers into a TraceStore-style bounded ring, periodically and on
// demand. Everything here is gated on the observability options
// (HistorySamples, ProfileCapacity, Metrics): with all of them off no
// goroutine starts, no RPC is issued, and no allocation happens (the
// PR 7 zero-overhead contract).

package core

import (
	"fmt"
	"sort"
	"time"

	"s2/internal/obs"
	"s2/internal/sidecar"
)

// profileHarvestInterval is the default cadence of the periodic heap
// harvest when the profile store is enabled.
const profileHarvestInterval = time.Minute

// stragglerAlpha is the EWMA weight of the newest round's skew sample in
// a worker's straggler score.
const stragglerAlpha = 0.3

// stragglerLogThreshold gates the structured-event/flight path: rounds
// where the slowest worker is under 2x the median, or the absolute skew
// is under this floor, are normal jitter and not worth an event.
const stragglerLogThreshold = 10 * time.Millisecond

// fleetVital is the latest vitals snapshot for one directory slot.
type fleetVital struct {
	v  sidecar.WorkerVitals
	at time.Time
}

// FleetWorker is one worker's row in the fleet health snapshot.
type FleetWorker struct {
	Worker           int     `json:"worker"`
	Shard            int     `json:"shard"`
	Round            int     `json:"round"`
	QueueLen         int     `json:"queue"`
	BDDNodes         int64   `json:"bdd_nodes"`
	GCPauseP99Micros int64   `json:"gc_pause_p99_us"`
	RSSBytes         int64   `json:"rss_bytes"`
	HeapBytes        int64   `json:"heap_bytes"`
	Goroutines       int     `json:"goroutines"`
	StragglerScore   float64 `json:"straggler_score"`
	// AgeMillis is how stale this row is (time since the vitals pull).
	AgeMillis int64 `json:"age_ms"`
}

// FleetHealth is the controller's live fleet snapshot: the dashboard's
// fleet table and the /healthz detail of serving mode.
type FleetHealth struct {
	Epoch            uint64             `json:"epoch"`
	EpochAgeSeconds  float64            `json:"epoch_age_seconds"`
	Workers          []FleetWorker      `json:"workers"`
	RoundSkewSeconds map[string]float64 `json:"round_skew_seconds,omitempty"`
	HistoryRounds    uint64             `json:"history_rounds"`
}

// History exposes the fleet health time-series ring (nil when
// HistorySamples is 0).
func (c *Controller) History() *obs.History { return c.history }

// Profiles exposes the harvested-profile store (nil when ProfileCapacity
// is 0).
func (c *Controller) Profiles() *obs.ProfileStore { return c.profiles }

// FleetHealth assembles the live fleet snapshot from the latest sampled
// vitals and straggler scores. Cheap and safe from any goroutine.
func (c *Controller) FleetHealth() FleetHealth {
	h := FleetHealth{Epoch: c.epoch.Load(), HistoryRounds: c.history.Rounds()}
	if at := c.epochAt.Load(); at != 0 {
		h.EpochAgeSeconds = time.Since(time.Unix(0, at)).Seconds()
	}
	now := time.Now()
	c.fleetMu.Lock()
	ids := make([]int, 0, len(c.fleetVitals))
	for id := range c.fleetVitals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fv := c.fleetVitals[id]
		h.Workers = append(h.Workers, FleetWorker{
			Worker:           id,
			Shard:            fv.v.Shard,
			Round:            fv.v.Round,
			QueueLen:         fv.v.QueueLen,
			BDDNodes:         fv.v.BDDNodes,
			GCPauseP99Micros: fv.v.GCPauseP99Micros,
			RSSBytes:         fv.v.RSSBytes,
			HeapBytes:        fv.v.HeapBytes,
			Goroutines:       fv.v.Goroutines,
			StragglerScore:   c.stragglers[id],
			AgeMillis:        now.Sub(fv.at).Milliseconds(),
		})
	}
	if len(c.lastSkew) > 0 {
		h.RoundSkewSeconds = make(map[string]float64, len(c.lastSkew))
		for phase, skew := range c.lastSkew {
			h.RoundSkewSeconds[phase] = skew
		}
	}
	c.fleetMu.Unlock()
	return h
}

// StragglerScores returns the per-worker straggler EWMA (directory index →
// score; 0 = keeping pace with the round median).
func (c *Controller) StragglerScores() map[int]float64 {
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	out := make(map[int]float64, len(c.stragglers))
	for id, s := range c.stragglers {
		out[id] = s
	}
	return out
}

// startStatsSampler launches the background vitals loop when the history
// ring is enabled. It rides the heartbeat cadence unless HistoryInterval
// overrides it, and additionally drives the periodic heap-profile harvest
// when the profile store is on.
func (c *Controller) startStatsSampler() {
	if c.history == nil || c.statsStop != nil || c.closed.Load() {
		return
	}
	interval := c.opts.HistoryInterval
	if interval <= 0 {
		interval = c.opts.HeartbeatInterval
	}
	if interval <= 0 {
		interval = harvestInterval
	}
	profEvery := 0
	if c.profiles != nil && c.opts.ProfileInterval >= 0 {
		pi := c.opts.ProfileInterval
		if pi == 0 {
			pi = profileHarvestInterval
		}
		profEvery = int(pi / interval)
		if profEvery < 1 {
			profEvery = 1
		}
	}
	c.statsStop = make(chan struct{})
	stop := c.statsStop
	c.statsWG.Add(1)
	go func() {
		defer c.statsWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		c.sampleFleet()
		ticks := 0
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.sampleFleet()
				ticks++
				if profEvery > 0 && ticks%profEvery == 0 {
					c.harvestHeapProfiles()
				}
			}
		}
	}()
}

func (c *Controller) stopStatsSampler() {
	if c.statsStop == nil {
		return
	}
	close(c.statsStop)
	c.statsWG.Wait()
	c.statsStop = nil
}

// sampleFleet pulls vitals from every worker, refreshes the per-worker
// gauges, and records one history round spanning the whole registry (or
// just the vitals when no registry is wired). Errors are swallowed —
// sampling is telemetry, never a run failure.
func (c *Controller) sampleFleet() {
	c.wmu.RLock()
	workers := append([]sidecar.WorkerAPI(nil), c.workers...)
	clients := append([]*sidecar.RemoteWorker(nil), c.clients...)
	c.wmu.RUnlock()
	now := time.Now()
	fresh := make(map[int]fleetVital, len(workers))
	for i, w := range workers {
		if w == nil {
			continue
		}
		var client *sidecar.RemoteWorker
		if i < len(clients) {
			client = clients[i]
		}
		sent := time.Now()
		reply, err := w.PullStats(sidecar.PullStatsRequest{})
		if err != nil {
			continue
		}
		if client != nil {
			c.skewFor(client).Observe(sent, time.Now(), reply.Vitals.NowUnixMicro)
		}
		fresh[i] = fleetVital{v: reply.Vitals, at: now}
		c.setWorkerGauges(i, reply.Vitals)
	}
	c.fleetMu.Lock()
	if c.fleetVitals == nil {
		c.fleetVitals = make(map[int]fleetVital, len(fresh))
	}
	for id, fv := range fresh {
		c.fleetVitals[id] = fv
	}
	c.fleetMu.Unlock()
	c.history.Record(now, c.historySample(fresh))
}

// setWorkerGauges mirrors one worker's vitals into the registry so they
// ride /metrics and the registry-wide history snapshot alike.
func (c *Controller) setWorkerGauges(id int, v sidecar.WorkerVitals) {
	if c.reg == nil {
		return
	}
	lbl := fmt.Sprint(id)
	c.reg.Gauge(MetricWorkerShard, "Current shard index per worker (fleet sampler).", "worker").Set(float64(v.Shard), lbl)
	c.reg.Gauge(MetricWorkerRound, "Current wavefront round per worker (fleet sampler).", "worker").Set(float64(v.Round), lbl)
	c.reg.Gauge(MetricWorkerQueueLen, "Parked symbolic packets per worker (fleet sampler).", "worker").Set(float64(v.QueueLen), lbl)
	c.reg.Gauge(MetricBDDNodes, "Live BDD nodes per worker.", "worker").Set(float64(v.BDDNodes), lbl)
	c.reg.Gauge(MetricWorkerGCPauseP99, "p99 BDD GC stop-the-world pause per worker (fleet sampler).", "worker").
		Set(float64(v.GCPauseP99Micros)/1e6, lbl)
	c.reg.Gauge(MetricWorkerRSS, "Resident set size per worker process (fleet sampler).", "worker").Set(float64(v.RSSBytes), lbl)
	c.reg.Gauge(MetricWorkerHeap, "Go heap in use per worker process (fleet sampler).", "worker").Set(float64(v.HeapBytes), lbl)
	c.reg.Gauge(MetricWorkerGoroutines, "Goroutines per worker process (fleet sampler).", "worker").Set(float64(v.Goroutines), lbl)
}

// historySample builds one history round. With a registry wired the whole
// Snapshot (which already includes the per-worker gauges) is recorded;
// otherwise a minimal vitals-only map keeps the ring useful.
func (c *Controller) historySample(fresh map[int]fleetVital) map[string]float64 {
	if c.reg != nil {
		return c.reg.Snapshot()
	}
	out := make(map[string]float64, len(fresh)*8)
	for id, fv := range fresh {
		suffix := fmt.Sprintf(`{worker="%d"}`, id)
		out[MetricWorkerShard+suffix] = float64(fv.v.Shard)
		out[MetricWorkerRound+suffix] = float64(fv.v.Round)
		out[MetricWorkerQueueLen+suffix] = float64(fv.v.QueueLen)
		out[MetricBDDNodes+suffix] = float64(fv.v.BDDNodes)
		out[MetricWorkerGCPauseP99+suffix] = float64(fv.v.GCPauseP99Micros) / 1e6
		out[MetricWorkerRSS+suffix] = float64(fv.v.RSSBytes)
		out[MetricWorkerHeap+suffix] = float64(fv.v.HeapBytes)
		out[MetricWorkerGoroutines+suffix] = float64(fv.v.Goroutines)
	}
	c.fleetMu.Lock()
	for id, s := range c.stragglers {
		out[fmt.Sprintf(`%s{worker="%d"}`, MetricStragglerScore, id)] = s
	}
	c.fleetMu.Unlock()
	return out
}

// observeRoundSkew scores one orchestration round's progress skew: each
// worker's duration relative to the round median feeds a per-worker EWMA
// (the straggler score), and the max-minus-median spread becomes the
// per-phase round skew. Called from eachPhaseIDs on every phase-attributed
// round; returns immediately when the fleet plane is off so the hot loop
// pays one branch.
func (c *Controller) observeRoundSkew(phase string, ids []int, durs []time.Duration) {
	if (c.reg == nil && c.history == nil) || len(durs) < 2 {
		return
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	med := sorted[len(sorted)/2]
	max := sorted[len(sorted)-1]
	skew := max - med

	var worstID int
	var worstScore float64
	c.fleetMu.Lock()
	if c.stragglers == nil {
		c.stragglers = map[int]float64{}
	}
	for i, d := range durs {
		var inst float64
		if med > 0 {
			inst = float64(d)/float64(med) - 1
			if inst < 0 {
				inst = 0
			}
		}
		id := ids[i]
		score := c.stragglers[id]*(1-stragglerAlpha) + inst*stragglerAlpha
		c.stragglers[id] = score
		if score > worstScore {
			worstScore, worstID = score, id
		}
	}
	if c.lastSkew == nil {
		c.lastSkew = map[string]float64{}
	}
	c.lastSkew[phase] = skew.Seconds()
	scores := make(map[int]float64, len(ids))
	for _, id := range ids {
		scores[id] = c.stragglers[id]
	}
	c.fleetMu.Unlock()

	if c.reg != nil {
		c.reg.Gauge(MetricRoundSkew,
			"Per-phase progress skew of the last orchestration round (slowest minus median worker).",
			"phase").Set(skew.Seconds(), phase)
		g := c.reg.Gauge(MetricStragglerScore,
			"EWMA of each worker's round-duration excess over the round median (0 = keeping pace).",
			"worker")
		for id, score := range scores {
			g.Set(score, fmt.Sprint(id))
		}
	}
	if med > 0 && max > 2*med && skew > stragglerLogThreshold {
		c.flight.Record("straggler", "%s round skew %s: worker %d at %.2fx median (score %.2f)",
			phase, skew.Round(time.Microsecond), worstID, float64(max)/float64(med), worstScore)
		if c.log != nil {
			c.log.Warn("straggler detected",
				obs.FStr("phase", phase),
				obs.FInt("worker", worstID),
				obs.FDur("skew", skew),
				obs.FStr("score", fmt.Sprintf("%.3f", worstScore)))
		}
	}
}

// harvestHeapProfiles is the periodic arm of continuous profiling: one
// cheap heap capture per worker into the bounded store.
func (c *Controller) harvestHeapProfiles() {
	c.wmu.RLock()
	n := len(c.workers)
	c.wmu.RUnlock()
	for i := 0; i < n; i++ {
		_, _ = c.PullWorkerProfile(i, "heap", 0)
	}
}

// PullWorkerProfile captures one pprof profile from the given worker over
// the PullProfile RPC and stores it in the bounded profile ring. The call
// uses the raw transport, bypassing the fault policy's per-RPC deadline —
// a CPU capture legitimately blocks for its whole sampling window.
func (c *Controller) PullWorkerProfile(worker int, kind string, seconds int) (*obs.Profile, error) {
	if c.profiles == nil {
		return nil, fmt.Errorf("core: profile store disabled (ProfileCapacity is 0)")
	}
	if c.closed.Load() {
		return nil, fmt.Errorf("core: controller is closed")
	}
	c.wmu.RLock()
	var local *Worker
	var client *sidecar.RemoteWorker
	ok := worker >= 0 && worker < len(c.workers)
	if ok {
		if worker < len(c.locals) {
			local = c.locals[worker]
		}
		if worker < len(c.clients) {
			client = c.clients[worker]
		}
	}
	c.wmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: no worker %d", worker)
	}
	req := sidecar.PullProfileRequest{Kind: kind, Seconds: seconds}
	var reply sidecar.PullProfileReply
	var err error
	switch {
	case local != nil:
		reply, err = local.PullProfile(req)
	case client != nil:
		reply, err = client.PullProfile(req)
	default:
		return nil, fmt.Errorf("core: worker %d has no transport", worker)
	}
	if err != nil {
		return nil, err
	}
	p := &obs.Profile{Worker: worker, Kind: reply.Kind, Taken: time.Now(), Data: reply.Profile}
	c.profiles.Add(p)
	c.flight.Record("profile", "harvested %s profile from worker %d: %s (%d bytes)",
		reply.Kind, worker, p.ID, len(p.Data))
	return p, nil
}
