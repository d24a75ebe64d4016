// Span harvesting: remote workers buffer completed spans in a bounded
// export ring (obs.Tracer in export mode); the controller drains them over
// the PullSpans RPC and merges them into its own trace. Each drain doubles
// as a clock-skew sample — the reply carries the worker's wall clock, and
// the Dapper/NTP midpoint of the request's send/receive timestamps estimates
// the offset to apply before the remote spans land on the controller's
// timeline. Harvests piggyback on stage boundaries (EndShard, ComputeDP,
// query finish), run periodically in the background for long stages, drain
// one final time in Close, and make a bounded best-effort capture — spans
// plus the last flight-recorder page — from workers about to be evicted.

package core

import (
	"encoding/json"
	"fmt"
	"time"

	"s2/internal/obs"
	"s2/internal/sidecar"
)

// harvestBatch bounds one PullSpans round trip; the drain loop keeps going
// while the worker reports more.
const harvestBatch = 2048

// harvestInterval is the background harvester period when no heartbeat
// interval is configured.
const harvestInterval = 5 * time.Second

// evictCaptureTimeout bounds the best-effort pull from a worker that just
// failed liveness probing: it may answer (probe raced a stall) or hang.
const evictCaptureTimeout = time.Second

// skewFor returns (creating on demand) the clock-offset estimator for one
// remote client. Keyed by client identity, not worker index: eviction
// compacts the directory, and an estimator must follow its connection.
func (c *Controller) skewFor(client *sidecar.RemoteWorker) *obs.SkewEstimator {
	c.skewMu.Lock()
	defer c.skewMu.Unlock()
	e := c.skews[client]
	if e == nil {
		e = &obs.SkewEstimator{}
		c.skews[client] = e
	}
	return e
}

// HarvestSpans drains every remote worker's span export ring into the
// controller's tracer now. Safe to call at any time (the exporter ring and
// the worker-side PullSpans handler are lock-cheap and phase-independent);
// a no-op in local mode, where in-process workers share the tracer.
func (c *Controller) HarvestSpans() { c.harvestAll() }

func (c *Controller) harvestAll() {
	if c.tracer == nil {
		return
	}
	c.wmu.RLock()
	workers := append([]sidecar.WorkerAPI(nil), c.workers...)
	clients := append([]*sidecar.RemoteWorker(nil), c.clients...)
	c.wmu.RUnlock()
	for i := range workers {
		if i < len(clients) && clients[i] != nil {
			c.harvestWorker(workers[i], clients[i])
		}
	}
}

// harvestWorker drains one worker's ring to empty, feeding the skew
// estimator from every round trip and ingesting with the best offset so
// far. Errors are swallowed: harvesting is telemetry, never a run failure.
func (c *Controller) harvestWorker(w sidecar.WorkerAPI, client *sidecar.RemoteWorker) {
	est := c.skewFor(client)
	for {
		sent := time.Now()
		reply, err := w.PullSpans(sidecar.PullSpansRequest{Max: harvestBatch})
		received := time.Now()
		if err != nil {
			return
		}
		est.Observe(sent, received, reply.NowUnixMicro)
		if reply.Dropped > 0 {
			c.flight.Record("harvest", "worker export ring dropped %d spans (addr %s)",
				reply.Dropped, client.Addr())
		}
		c.tracer.Ingest(reply.Spans, est.Offset())
		if !reply.More {
			return
		}
	}
}

// evictCapture makes one bounded attempt per dying worker to pull its
// remaining spans and last flight page before the connection closes. The
// flight page is preserved as an "evict:worker<N>" span attribute in the
// controller's trace — post-mortem evidence that survives the eviction.
func (c *Controller) evictCapture(dead []int) {
	if c.tracer == nil {
		return
	}
	c.wmu.RLock()
	workers := append([]sidecar.WorkerAPI(nil), c.workers...)
	clients := append([]*sidecar.RemoteWorker(nil), c.clients...)
	c.wmu.RUnlock()
	for _, id := range dead {
		if id >= len(workers) || id >= len(clients) || clients[id] == nil {
			continue
		}
		reply, ok := pullSpansBounded(workers[id], evictCaptureTimeout)
		if !ok {
			c.flight.Record("evict", "worker %d unreachable, trace tail lost", id)
			continue
		}
		est := c.skewFor(clients[id])
		c.tracer.Ingest(reply.Spans, est.Offset())
		span := c.tracer.Start(fmt.Sprintf("evict:worker%d", id),
			obs.Int("worker", id),
			obs.Int("spans_salvaged", len(reply.Spans)))
		if len(reply.Flight) > 0 {
			span.SetAttr("flight", marshalFlight(reply.Flight))
		}
		span.End()
		c.flight.Record("evict", "worker %d: salvaged %d spans, %d flight events",
			id, len(reply.Spans), len(reply.Flight))
	}
}

// pullSpansBounded issues one PullSpans with its own deadline, independent
// of the transport's policy: the target just failed a liveness probe, and a
// hung call here would stall the whole recovery. The abandoned goroutine
// unblocks when evict closes the client.
func pullSpansBounded(w sidecar.WorkerAPI, d time.Duration) (sidecar.PullSpansReply, bool) {
	type res struct {
		reply sidecar.PullSpansReply
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		reply, err := w.PullSpans(sidecar.PullSpansRequest{Max: 2 * harvestBatch, WithFlight: true})
		ch <- res{reply, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.reply, r.err == nil
	case <-timer.C:
		return sidecar.PullSpansReply{}, false
	}
}

// startHarvester launches the periodic background drain for remote runs
// with tracing: long convergence stages would otherwise overflow the
// workers' export rings before the next stage-boundary harvest.
func (c *Controller) startHarvester() {
	if c.tracer == nil || len(c.opts.WorkerAddrs) == 0 || c.harvestStop != nil {
		return
	}
	interval := c.opts.HeartbeatInterval
	if interval <= 0 {
		interval = harvestInterval
	}
	c.harvestStop = make(chan struct{})
	stop := c.harvestStop
	c.harvestWG.Add(1)
	go func() {
		defer c.harvestWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.harvestAll()
			}
		}
	}()
}

func (c *Controller) stopHarvester() {
	if c.harvestStop == nil {
		return
	}
	close(c.harvestStop)
	c.harvestWG.Wait()
	c.harvestStop = nil
}

// marshalFlight renders captured flight events as compact JSON for storage
// in a span attribute.
func marshalFlight(events []obs.FlightEvent) string {
	b, err := json.Marshal(events)
	if err != nil {
		return "[]"
	}
	return string(b)
}
