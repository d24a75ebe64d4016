package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"s2/internal/obs"
	"s2/internal/sidecar"
)

// startTracedRemoteWorkers starts n TCP workers the way cmd/s2worker does:
// each with its own export-mode tracer and always-on flight recorder, so the
// controller can harvest their spans over PullSpans.
func startTracedRemoteWorkers(t *testing.T, n int) ([]string, []*sidecar.Server, []*Worker) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*sidecar.Server, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		workers[i] = NewWorker()
		tr := obs.NewTracer()
		tr.SetExportLimit(4096)
		workers[i].SetObservability(tr, nil)
		servers[i] = sidecar.NewServer(workers[i])
		go servers[i].Serve(lis)
		t.Cleanup(func() { servers[i].Shutdown(0) })
	}
	return addrs, servers, workers
}

// TestDistributedTraceTCPRun is the tentpole acceptance check for the
// distributed trace plane: a three-worker TCP run with tracing must merge
// every worker's shard/phase spans into the controller's single Chrome
// trace, parented (via args.parent) under the controller RPC span that
// triggered them, with no child escaping its parent's interval after skew
// correction.
func TestDistributedTraceTCPRun(t *testing.T) {
	tracer := obs.NewTracer()
	snap, texts := fatTreeSnap(t, 4)
	addrs, _, _ := startTracedRemoteWorkers(t, 3)
	c := newS2(t, snap, texts, Options{
		WorkerAddrs: addrs, Shards: 2, Seed: 3,
		Tracer: tracer,
	})
	defer c.Close()
	res := runFull(t, c)
	if len(res.Unreached) != 0 || len(res.Violations) != 0 {
		t.Fatalf("traced run must verify: unreached=%v violations=%v", res.Unreached, res.Violations)
	}

	events := tracer.Events()
	byID := map[string]obs.TraceEvent{}
	for _, e := range events {
		byID[e.Args["span"]] = e
	}

	// Every worker contributed phase spans on its own pid lane, and each
	// phase span parents under a controller rpc span for the same method.
	phaseByPID := map[int]map[string]int{}
	rpcParented := 0
	for _, e := range events {
		if e.PID < 1 {
			continue
		}
		if phaseByPID[e.PID] == nil {
			phaseByPID[e.PID] = map[string]int{}
		}
		phaseByPID[e.PID][e.Name]++
		p, ok := e.Args["parent"]
		if !ok {
			continue
		}
		pe, ok := byID[p]
		if !ok {
			t.Fatalf("worker span %q (pid %d) has unknown parent %s", e.Name, e.PID, p)
		}
		if pe.PID == 0 {
			if !strings.HasPrefix(pe.Name, "rpc:") {
				t.Errorf("worker span %q parents under controller span %q, want an rpc span", e.Name, pe.Name)
			}
			rpcParented++
			if pe.TID != e.TID {
				t.Errorf("worker span %q tid %d != originating rpc span tid %d", e.Name, e.TID, pe.TID)
			}
		}
	}
	for pid := 1; pid <= 3; pid++ {
		phases := phaseByPID[pid]
		if len(phases) == 0 {
			t.Fatalf("no harvested spans on worker lane pid=%d; lanes: %v", pid, phaseByPID)
		}
		for _, want := range []string{"shard", "gather-bgp", "apply-bgp", "end-shard", "compute-dp"} {
			if phases[want] == 0 {
				t.Errorf("worker pid=%d missing %q span: %v", pid, want, phases)
			}
		}
	}
	if rpcParented == 0 {
		t.Fatal("no worker span is parented under a controller rpc span")
	}

	// Time containment after skew correction, for every parented span.
	for _, e := range events {
		p, ok := e.Args["parent"]
		if !ok {
			continue
		}
		pe, ok := byID[p]
		if !ok {
			continue
		}
		if e.TS < pe.TS || e.TS+e.Dur > pe.TS+pe.Dur {
			t.Errorf("span %q [%d,%d] escapes parent %q [%d,%d] after skew correction",
				e.Name, e.TS, e.TS+e.Dur, pe.Name, pe.TS, pe.TS+pe.Dur)
		}
	}

	// The merged trace is one valid Chrome trace_event file.
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("merged trace is not valid Chrome JSON: %v", err)
	}
	if len(f.TraceEvents) != len(events) {
		t.Fatalf("JSON round-trip lost events: %d vs %d", len(f.TraceEvents), len(events))
	}

	// The attribution report distills the same trace: every worker row shows
	// control-plane wall time, RPC traffic, and transport bytes.
	rep := c.AttributionReport()
	if len(rep.Workers) != 3 {
		t.Fatalf("report has %d worker rows, want 3", len(rep.Workers))
	}
	for _, w := range rep.Workers {
		if w.Stages["cp-bgp"].Micros <= 0 {
			t.Errorf("worker %d: no cp-bgp wall time: %+v", w.Worker, w.Stages)
		}
		if w.RPCCount == 0 {
			t.Errorf("worker %d: no RPCs attributed", w.Worker)
		}
		if w.BytesRead == 0 || w.BytesWritten == 0 {
			t.Errorf("worker %d: transport bytes missing", w.Worker)
		}
	}
	text := rep.String()
	for _, want := range []string{"worker", "cp-bgp", "w0", "w1", "w2"} {
		if !strings.Contains(text, want) {
			t.Errorf("report table missing %q:\n%s", want, text)
		}
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back AttributionReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Workers) != 3 {
		t.Fatalf("JSON report lost workers: %d", len(back.Workers))
	}
}

// TestDeadWorkerTraceSurvives kills one of three TCP workers in the middle
// of the BGP phase (with recovery on). The merged trace must keep the dead
// worker's pre-crash spans — everything harvested before the kill — and the
// survivors' full timelines, and the controller's flight recorder must hold
// the eviction evidence.
func TestDeadWorkerTraceSurvives(t *testing.T) {
	tracer := obs.NewTracer()
	snap, texts := fatTreeSnap(t, 4)
	addrs, servers, _ := startTracedRemoteWorkers(t, 3)

	var ctrl *Controller
	hook := func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
		if id != 2 {
			return w
		}
		return &killSwitch{WorkerAPI: w, nth: 2, kill: func() {
			// Model a crash after the last periodic harvest: drain what the
			// worker exported so far, then drop its server mid-phase.
			ctrl.HarvestSpans()
			servers[2].Shutdown(0)
		}}
	}
	c := newS2(t, snap, texts, Options{
		WorkerAddrs: addrs, Seed: 25, Tracer: tracer,
		RPCTimeout: 5 * time.Second, Recover: true, WrapWorker: hook,
	})
	ctrl = c
	defer c.Close()
	runCP(t, c)
	if c.FaultCounters().Get("worker.deaths") != 1 {
		t.Fatalf("counters: %s", c.FaultCounters())
	}
	c.HarvestSpans()

	events := tracer.Events()
	spansByPID := map[int]map[string]int{}
	for _, e := range events {
		if e.PID < 1 {
			continue
		}
		if spansByPID[e.PID] == nil {
			spansByPID[e.PID] = map[string]int{}
		}
		spansByPID[e.PID][e.Name]++
	}
	// Dead worker (id 2, pid lane 3): pre-crash spans survived the eviction.
	dead := spansByPID[3]
	if dead["setup"] == 0 || dead["gather-bgp"] == 0 {
		t.Errorf("dead worker's pre-crash spans missing from merged trace: %v", dead)
	}
	// Survivors (pids 1 and 2) have their full control-plane timelines.
	for pid := 1; pid <= 2; pid++ {
		got := spansByPID[pid]
		for _, want := range []string{"setup", "gather-bgp", "apply-bgp", "end-shard"} {
			if got[want] == 0 {
				t.Errorf("survivor pid=%d missing %q span: %v", pid, want, got)
			}
		}
	}

	// The controller flight recorder narrates the failure.
	var sawRPC, sawEvict, sawRecovery bool
	for _, ev := range c.FlightRecorder().Events() {
		switch ev.Kind {
		case "rpc":
			sawRPC = true
		case "evict":
			sawEvict = true
		case "recovery":
			sawRecovery = true
		}
	}
	if !sawRPC || !sawEvict || !sawRecovery {
		t.Errorf("flight recorder missing failure narrative (rpc=%v evict=%v recovery=%v):\n%v",
			sawRPC, sawEvict, sawRecovery, c.FlightRecorder().Events())
	}
}

// TestPhaseClass pins the trace-parent propagation surface: phase RPCs
// carry the one-shot parent, probes and peer traffic never do.
func TestPhaseClass(t *testing.T) {
	for _, m := range []string{"Setup", "BeginShard", "GatherBGP", "ApplyBGP",
		"GatherOSPF", "ApplyOSPF", "EndShard", "ComputeDP", "BeginQueryBatch",
		"Inject", "DPRound", "FinishQuery", "ApplyDelta"} {
		if !sidecar.PhaseClass(m) {
			t.Errorf("%s must be a phase call", m)
		}
	}
	for _, m := range []string{"Ping", "HasWork", "Stats", "PullSpans",
		"PullStats", "PullProfile",
		"PullBGPBatchWire", "PullLSABatchWire",
		"DeliverBatch", "CollectRIBs", "Bogus"} {
		if sidecar.PhaseClass(m) {
			t.Errorf("%s must not be a phase call", m)
		}
	}
}

// TestEvictCaptureFlightPage: when the dying worker is still reachable at
// eviction time, the controller salvages its remaining spans AND its last
// flight-recorder page into an evict span's attrs.
func TestEvictCaptureFlightPage(t *testing.T) {
	tracer := obs.NewTracer()
	snap, texts := fatTreeSnap(t, 4)
	addrs, _, _ := startTracedRemoteWorkers(t, 3)

	// Crash via injector on the controller-side transport: the worker
	// process itself stays up and answers PullSpans, so eviction can pull
	// its last flight page.
	hook := func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
		if id != 2 {
			return w
		}
		return &alwaysFail{WorkerAPI: w, method: "ApplyBGP", nth: 2}
	}
	c := newS2(t, snap, texts, Options{
		WorkerAddrs: addrs, Seed: 26, Tracer: tracer,
		RPCTimeout: 5 * time.Second, Recover: true, WrapWorker: hook,
	})
	defer c.Close()
	runCP(t, c)
	if c.FaultCounters().Get("worker.deaths") != 1 {
		t.Fatalf("counters: %s", c.FaultCounters())
	}

	var evictSpan *obs.TraceEvent
	for _, e := range tracer.Events() {
		if strings.HasPrefix(e.Name, "evict:worker") {
			e := e
			evictSpan = &e
		}
	}
	if evictSpan == nil {
		t.Fatal("no evict span in controller trace")
	}
	flightJSON, ok := evictSpan.Args["flight"]
	if !ok {
		t.Fatalf("evict span carries no flight page: %v", evictSpan.Args)
	}
	var page []obs.FlightEvent
	if err := json.Unmarshal([]byte(flightJSON), &page); err != nil || len(page) == 0 {
		t.Fatalf("evict flight attr not a JSON event page: %v (%d events)", err, len(page))
	}
	var sawPhase bool
	for _, ev := range page {
		if ev.Kind == "phase" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Errorf("captured flight page has no phase events: %v", page)
	}
}

// alwaysFail makes one worker's transport look dead from the Nth ApplyBGP
// onward — ApplyBGP and the liveness probe both fail, but the worker process
// stays alive, so the eviction path can still pull its spans and flight page.
type alwaysFail struct {
	sidecar.WorkerAPI
	mu      sync.Mutex
	method  string
	nth     int
	calls   int
	tripped bool
}

func (a *alwaysFail) ApplyBGP() (sidecar.ApplyReply, error) {
	a.mu.Lock()
	a.calls++
	if a.calls >= a.nth {
		a.tripped = true
	}
	tripped := a.tripped
	a.mu.Unlock()
	if tripped {
		return sidecar.ApplyReply{}, errTransientApply
	}
	return a.WorkerAPI.ApplyBGP()
}

func (a *alwaysFail) Ping() error {
	a.mu.Lock()
	tripped := a.tripped
	a.mu.Unlock()
	if tripped {
		return errTransientApply
	}
	return a.WorkerAPI.Ping()
}

// errTransientApply reads as a dead transport to fault.IsTransient.
var errTransientApply = errors.New("injected: connection reset")
