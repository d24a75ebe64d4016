// Package core is S2 itself: the distributed configuration verifier. A
// Controller partitions the parsed network into segments, hands each to a
// Worker, and orchestrates distributed control plane simulation (per prefix
// shard) followed by distributed data plane verification (§3).
//
// Workers implement sidecar.WorkerAPI, so the same controller drives
// in-process workers (goroutines with isolated state — the default) and
// remote workers (separate OS processes serving the sidecar RPC protocol,
// started with cmd/s2worker).
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s2/internal/bdd"
	"s2/internal/bgp"
	"s2/internal/config"
	"s2/internal/dataplane"
	"s2/internal/fault"
	"s2/internal/metrics"
	"s2/internal/obs"
	"s2/internal/ospf"
	"s2/internal/route"
	"s2/internal/sidecar"
	"s2/internal/sim"
	"s2/internal/topology"
)

// Worker hosts one segment of the network: real nodes for its own switches
// and shadow relays for everyone else's. All heavy state — RIBs, the BDD
// engine, compiled data planes — is private to the worker.
type Worker struct {
	id         int
	assignment map[string]int
	peers      []sidecar.WorkerAPI
	tracker    *metrics.Tracker
	layout     dataplane.Layout
	maxBDD     int
	spillDir   string
	keepRIBs   bool

	// dialedPeers are the RPC clients this worker opened itself (remote
	// mode); a re-Setup closes them before redialing the new directory.
	dialedPeers []*sidecar.RemoteWorker
	// defPolicy is the fault policy for peer-to-peer calls when the
	// SetupRequest doesn't carry one (s2worker flags).
	defPolicy fault.Policy

	// phaseMu serializes the controller-phase methods (Setup, shard and
	// query rounds). The controller normally issues them one at a time, but
	// a retried idempotent RPC can race its own timed-out first attempt, and
	// recovery can re-Setup while a stale phase call is still draining.
	// Peer-facing methods (Pull*, DeliverBatch) and probes (Ping, HasWork,
	// Stats) do NOT take it: a phase holding phaseMu calls into peers, so
	// gating those would deadlock two workers against each other.
	phaseMu sync.Mutex

	// procs bounds intra-phase parallelism: the per-node loops of the
	// gather/apply/compute/forward phases run on up to procs goroutines.
	// procs<=1 is strictly sequential and reproduces the single-threaded
	// behavior exactly. defProcs is the worker-process default (s2worker
	// -procs) used when SetupRequest.Parallelism is unset.
	procs    int
	defProcs int
	// The per-peer delta protocol of the DeliverBatch packet relay (see
	// wire.go): sendSessions is the sender half, touched only by the phase
	// goroutine; recvTables is the receiver half (map and accept cursors
	// guarded by qmu, materialized refs touched only by the phase
	// goroutine); wireInbox parks accepted batch deliveries until the next
	// drain (guarded by qmu).
	sendSessions map[int]*bdd.WireSession
	recvTables   map[int]*bdd.WireTable
	wireInbox    []wireDelivery

	devices     map[string]*config.Device
	adjacencies map[string][]topology.Adjacency
	sessions    map[string][]topology.BGPSession
	localNames  []string // sorted local device names

	// Control plane.
	bgpProcs    map[string]*bgp.Process
	ospfProcs   map[string]*ospf.Process
	bgpPulls    *sim.PullTracker
	ospfPulls   *sim.PullTracker
	pendingBGP  map[string]map[string][]bgp.Advertisement
	pendingLSAs map[string][]*ospf.LSA
	needsRun    map[string]bool
	shardIndex  int
	// shardPrefixes is the current shard's prefix set (nil = unfiltered);
	// EndShard clears these from accumulated results before harvesting so
	// a merged-shard recompute (§7) replaces stale entries.
	shardPrefixes []route.Prefix

	// Results accumulated across shards.
	fibRIBs   map[string]*route.RIB // attribute-stripped routes for FIB building
	finalRIBs map[string]*route.RIB // full routes (only when keepRIBs)
	spills    []string
	// liteScratch backs the attribute-stripped route copies of spill-mode
	// EndShard harvests. The copies are dead once the shard is encoded to
	// disk, so the buffer is reused across shards (it converges to the
	// largest shard's size after the first few harvests).
	liteScratch []route.Route

	// Data plane.
	engine   *bdd.Engine
	nodesDP  map[string]*dataplane.NodeDP
	adjIndex dataplane.AdjacencyIndex
	query    *dataplane.Query
	// batchDests holds the per-query dest sets of the armed pass
	// (BeginQueryBatch), indexed by the query's tag index. A nil entry
	// means "any delivery counts" for that query.
	batchDests []map[string]bool

	// qmu guards the cross-RPC mutable state below: peers deliver packets
	// concurrently with the controller's round barrier.
	qmu      sync.Mutex
	inbox    []injection
	queue    map[packetSlot]bdd.Ref
	queueLen int
	outcomes []dataplane.Outcome
	// qround is the wavefront round the next DPRound will process. Peer
	// deliveries stamped for a later round stay parked in the inbox, so a
	// packet advances exactly one adjacency per round no matter how the
	// concurrently-running workers' deliveries interleave with the drain.
	qround int

	statsPulls   int64
	statsPackets int64
	// vitals mirrors phase-guarded state behind atomics so the PullStats
	// probe (fleet health sampler) never touches phaseMu: writers update
	// it at phase boundaries (Setup, BeginShard, ComputeDP, GC) while
	// holding phaseMu; PullStats reads it lock-free.
	vitals workerVitals
	// profileMu single-flights CPU captures — runtime/pprof allows one
	// active CPU profile per process.
	profileMu sync.Mutex
	// pacer schedules BDD collections from measured GCStats (gcpacer.go);
	// gcPauses windows recent pause durations for WorkerStats percentiles.
	pacer    gcPacer
	gcStress bool
	gcWipe   bool
	gcPauses *metrics.DurationQuantiles

	// obs is the worker's observability handle (see observability.go).
	// Infrastructure, not run state: Setup's full reset leaves it alone.
	obs *workerObs
	// log receives the worker's structured logs (nil-safe). Like obs it is
	// infrastructure and survives Setup's full reset.
	log *obs.Logger
	// flight is the worker's always-on flight recorder: phase transitions,
	// GC, wire-session resets, and peer RPC faults land here regardless of
	// whether tracing/metrics are wired. Like obs, it survives Setup.
	flight *obs.FlightRecorder
}

// spillPayload is one shard round's on-disk result: the shard's prefix
// set plus the attribute-stripped routes per node.
type spillPayload struct {
	Prefixes []route.Prefix
	Routes   map[string][]*route.Route
}

type packetSlot struct {
	source string
	node   string
	inPort string
}

// NewWorker creates an unconfigured worker; Setup must be called before
// any phase method.
func NewWorker() *Worker {
	return &Worker{flight: obs.NewFlightRecorder(0)}
}

// FlightRecorder exposes the worker's always-on flight recorder (SIGQUIT
// dumps, /debug/flightrecorder, and the controller's eviction capture).
func (w *Worker) FlightRecorder() *obs.FlightRecorder { return w.flight }

// SetPeers wires the in-process peer directory (the controller calls this
// for local transports; remote workers dial PeerAddrs during Setup).
func (w *Worker) SetPeers(peers []sidecar.WorkerAPI) { w.peers = peers }

// SetDefaultPolicy sets the fault policy used for peer-to-peer calls when
// Setup doesn't carry one (the s2worker -rpc-timeout/-retries flags).
func (w *Worker) SetDefaultPolicy(p fault.Policy) { w.defPolicy = p }

// SetDefaultParallelism sets the pool size used when Setup doesn't carry
// one (the s2worker -procs flag). Values <= 0 mean sequential.
func (w *Worker) SetDefaultParallelism(n int) { w.defProcs = n }

// SetLogger attaches a structured logger (nil disables). Like the obs
// handle it is infrastructure: Setup's full reset leaves it alone, so
// recovery re-Setups keep their logging.
func (w *Worker) SetLogger(l *obs.Logger) { w.log = l }

// Ping implements sidecar.WorkerAPI: the liveness probe. It deliberately
// avoids phaseMu — a worker busy in a long phase is alive, not dead.
func (w *Worker) Ping() error { return nil }

// Setup implements sidecar.WorkerAPI. It fully resets the worker: recovery
// re-partitions segments onto survivors and re-runs Setup on workers that
// already hold state from the failed attempt.
func (w *Worker) Setup(req sidecar.SetupRequest) error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	// Claim this worker's disjoint span-id range before minting the setup
	// span: w.id is not assigned until later in Setup, and ids minted from
	// the counter's initial value would collide with the controller's when
	// the harvested spans merge (obsSetupDone re-asserts the base, which is
	// then a no-op). SetWorker pins the pid lane for the same reason.
	if w.obs != nil && w.obs.tracer != nil && w.obs.tracer.Exporting() {
		w.obs.tracer.EnsureIDBase(uint64(req.WorkerID+1) << 40)
	}
	span := w.obsWorkerSpan("setup").SetWorker(req.WorkerID)
	defer span.End()
	w.flight.Record("phase", "setup: worker %d, %d configs, %d peers",
		req.WorkerID, len(req.Configs), len(req.PeerAddrs))

	// Drop every remnant of a previous Setup.
	for _, c := range w.dialedPeers {
		c.Close()
	}
	w.dialedPeers = nil
	if len(req.PeerAddrs) > 0 {
		w.peers = nil // force a redial against the new directory
	}
	w.pendingBGP, w.pendingLSAs = nil, nil
	w.needsRun = nil
	w.shardIndex, w.shardPrefixes = 0, nil
	for _, p := range w.spills {
		os.Remove(p)
	}
	w.spills = nil
	w.engine, w.nodesDP, w.query, w.batchDests = nil, nil, nil, nil
	w.gcStress, w.gcWipe = req.GCStress, req.GCWipe
	w.pacer = newGCPacer(req.GCStress, req.MemoryBudget > 0)
	w.gcPauses = metrics.NewDurationQuantiles(0)
	w.qmu.Lock()
	w.inbox, w.queue, w.queueLen, w.outcomes = nil, nil, 0, nil
	w.qround = 0
	w.wireInbox, w.recvTables = nil, map[int]*bdd.WireTable{}
	w.statsPulls, w.statsPackets = 0, 0
	w.qmu.Unlock()
	w.sendSessions = map[int]*bdd.WireSession{}

	w.id = req.WorkerID
	w.vitals.reset(req.WorkerID)
	w.assignment = req.Assignment
	w.layout = dataplane.Layout{MetaBits: req.MetaBits}
	w.maxBDD = req.MaxBDDNodes
	w.spillDir = req.SpillDir
	w.keepRIBs = req.KeepRIBs
	w.tracker = metrics.NewTracker(fmt.Sprintf("worker%d", req.WorkerID), req.MemoryBudget)
	w.adjacencies = req.Adjacencies
	w.sessions = req.Sessions
	w.procs = req.Parallelism
	if w.procs <= 0 {
		w.procs = w.defProcs
	}
	if w.procs <= 0 {
		w.procs = 1
	}

	snap, err := config.ParseTexts(req.Configs)
	if err != nil {
		return fmt.Errorf("core: worker %d parsing configs: %w", w.id, err)
	}
	w.devices = snap.Devices
	w.localNames = snap.DeviceNames()

	// Dial peers when running as a separate process, wrapping each client
	// with the fault policy so peer pulls and packet deliveries get the
	// same deadlines/retries as controller calls.
	if len(req.PeerAddrs) > 0 {
		policy := w.defPolicy
		if req.RPCTimeout > 0 || req.RPCRetries > 0 {
			policy = fault.Policy{Timeout: req.RPCTimeout, Retries: req.RPCRetries}
		}
		var wrap sidecar.CallWrapper
		if policy.Timeout > 0 || policy.Retries > 0 {
			caller := fault.NewCaller(policy, nil)
			caller.SetNotify(func(event, method string, err error) {
				w.flight.Record("rpc", "peer %s %s: %v", event, method, err)
			})
			wrap = caller.Wrap()
		}
		w.peers = make([]sidecar.WorkerAPI, len(req.PeerAddrs))
		for i, addr := range req.PeerAddrs {
			if i == w.id || addr == "" {
				continue
			}
			client, err := sidecar.DialWrapped(addr, policy.Timeout, wrap)
			if err != nil {
				return fmt.Errorf("core: worker %d dialing peer %d: %w", w.id, i, err)
			}
			// Peer-bound requests carry the phase span they were issued
			// from, so harvested traces attribute peer traffic to phases.
			if w.obs != nil && w.obs.tracer != nil {
				client.SetTraceSource(w.obs.curTC)
			}
			w.peers[i] = client
			w.dialedPeers = append(w.dialedPeers, client)
		}
	}

	w.bgpProcs = map[string]*bgp.Process{}
	w.ospfProcs = map[string]*ospf.Process{}
	for name, dev := range w.devices {
		if dev.BGP != nil {
			w.bgpProcs[name] = bgp.NewProcess(dev, w.sessions[name], w.tracker)
		}
		if dev.OSPF != nil {
			w.ospfProcs[name] = ospf.NewProcess(dev, w.adjacencies[name], w.tracker)
		}
	}
	w.bgpPulls = sim.NewPullTracker()
	w.ospfPulls = sim.NewPullTracker()
	w.fibRIBs = map[string]*route.RIB{}
	w.finalRIBs = map[string]*route.RIB{}
	for name := range w.devices {
		w.fibRIBs[name] = route.NewRIB()
		if w.keepRIBs {
			w.finalRIBs[name] = route.NewRIB()
		}
	}
	w.adjIndex = dataplane.AdjacencyIndex{}
	for dev, adjs := range w.adjacencies {
		m := map[string]dataplane.PortDest{}
		for _, a := range adjs {
			m[a.LocalIfc] = dataplane.PortDest{Node: a.Neighbor, Port: a.RemoteIfc}
		}
		w.adjIndex[dev] = m
	}
	w.obsSetupDone()
	w.log.Info("worker setup",
		obs.FInt("worker", w.id),
		obs.FInt("devices", len(w.localNames)),
		obs.FInt("procs", w.procs))
	return nil
}

// pullBGP serves one shadow-node pull from another worker (Algorithm 1,
// line 15 arriving at the real node). statsPulls counts logical pulls, so
// batching shows up as fewer RPCs, not fewer pulls.
func (w *Worker) pullBGP(exporter, puller string, since uint64, seen bool) ([]bgp.Advertisement, uint64, bool, error) {
	proc, ok := w.bgpProcs[exporter]
	if !ok {
		return nil, 0, false, fmt.Errorf("core: worker %d does not host %q", w.id, exporter)
	}
	w.qmu.Lock()
	w.statsPulls++
	w.qmu.Unlock()
	advs, ver, fresh := proc.ExportsTo(puller, since, seen)
	return advs, ver, fresh, nil
}

// pullLSAs is the OSPF analogue of pullBGP.
func (w *Worker) pullLSAs(exporter, puller string, since uint64, seen bool) ([]*ospf.LSA, uint64, bool, error) {
	proc, ok := w.ospfProcs[exporter]
	if !ok {
		return nil, 0, false, fmt.Errorf("core: worker %d does not host %q", w.id, exporter)
	}
	w.qmu.Lock()
	w.statsPulls++
	w.qmu.Unlock()
	lsas, ver, fresh := proc.LSAsTo(puller, since, seen)
	return lsas, ver, fresh, nil
}

// PullBGPBatchWire implements sidecar.WorkerAPI: it serves a whole gather
// round's worth of one peer's shadow-node pulls in a single round trip,
// each entry exactly like a lone pullBGP. The varint encoding happens in
// the sidecar Service/RemoteWorker pair when the call actually crosses a
// process boundary.
func (w *Worker) PullBGPBatchWire(reqs []sidecar.PullBGPRequest) ([]sidecar.PullBGPReply, error) {
	replies := make([]sidecar.PullBGPReply, len(reqs))
	for i, q := range reqs {
		advs, ver, fresh, err := w.pullBGP(q.Exporter, q.Puller, q.Since, q.Seen)
		if err != nil {
			return nil, err
		}
		replies[i] = sidecar.PullBGPReply{Advs: advs, Version: ver, Fresh: fresh}
	}
	return replies, nil
}

// PullLSABatchWire implements sidecar.WorkerAPI (the OSPF analogue of
// PullBGPBatchWire).
func (w *Worker) PullLSABatchWire(reqs []sidecar.PullLSAsRequest) ([]sidecar.PullLSAsReply, error) {
	replies := make([]sidecar.PullLSAsReply, len(reqs))
	for i, q := range reqs {
		lsas, ver, fresh, err := w.pullLSAs(q.Exporter, q.Puller, q.Since, q.Seen)
		if err != nil {
			return nil, err
		}
		replies[i] = sidecar.PullLSAsReply{LSAs: lsas, Version: ver, Fresh: fresh}
	}
	return replies, nil
}

// BeginShard implements sidecar.WorkerAPI: reset BGP state for the shard's
// prefix filter and wire OSPF redistribution.
func (w *Worker) BeginShard(req sidecar.BeginShardRequest) error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	w.obsBeginShard(req.Index, len(req.Prefixes))
	w.flight.Record("phase", "begin-shard %d: %d prefixes", req.Index, len(req.Prefixes))
	w.shardIndex = req.Index
	w.vitals.shard.Store(int64(req.Index))
	w.shardPrefixes = req.Prefixes
	var filter bgp.PrefixFilter
	if len(req.Prefixes) > 0 {
		set := make(map[route.Prefix]bool, len(req.Prefixes))
		for _, p := range req.Prefixes {
			set[p] = true
		}
		filter = func(p route.Prefix) bool { return set[p] }
	}
	w.bgpPulls.Reset()
	w.pendingBGP = nil
	w.needsRun = map[string]bool{}
	for name, proc := range w.bgpProcs {
		proc.ResetForShard(filter)
		if op, ok := w.ospfProcs[name]; ok {
			proc.SetExternalRoutes("ospf", op.Routes().All())
		}
		w.needsRun[name] = true
	}
	return nil
}

// pullSlot is one (node, neighbor) pull's result, filled either directly
// (local exporters) or by a batched round trip. A nil st means the pull
// was skipped (no exporter).
type pullSlot struct {
	st    *sim.PullState
	ver   uint64
	fresh bool
	advs  []bgp.Advertisement // BGP gathers
	lsas  []*ospf.LSA         // OSPF gathers
}

// batchRef addresses a pullSlot awaiting a batched reply.
type batchRef struct{ i, j int }

// GatherBGP implements sidecar.WorkerAPI: phase 1 of one round — every
// local node pulls route deltas from all neighbors (real or shadow), with
// no writes to any node state, so all workers gather concurrently against
// the quiesced previous round. Within the worker the per-node pulls run on
// up to procs goroutines, and pulls bound for the same remote worker are
// coalesced into one batch RPC.
func (w *Worker) GatherBGP() error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("gather-bgp")
	defer span.End()
	names := w.localNames
	nbLists := make([][]string, len(names))
	slots := make([][]pullSlot, len(names))
	var batchMu sync.Mutex
	batch := map[int][]batchRef{}

	// Phase A: per-node pulls. Local exporters resolve inline; remote pulls
	// only record their cursor.
	err := runIndexed(w.procs, len(names), func(i int) error {
		name := names[i]
		proc, ok := w.bgpProcs[name]
		if !ok {
			return nil
		}
		nbs := proc.NeighborNames()
		nbLists[i] = nbs
		ss := make([]pullSlot, len(nbs))
		slots[i] = ss
		for j, nb := range nbs {
			owner := w.assignment[nb]
			if owner == w.id {
				p, ok := w.bgpProcs[nb]
				if !ok {
					continue
				}
				st := w.bgpPulls.Get(name, nb)
				advs, ver, fresh := p.ExportsTo(name, st.Version, st.Seen)
				ss[j] = pullSlot{st: st, ver: ver, fresh: fresh, advs: advs}
				continue
			}
			peer := w.peers[owner]
			if peer == nil {
				continue
			}
			ss[j].st = w.bgpPulls.Get(name, nb)
			batchMu.Lock()
			batch[owner] = append(batch[owner], batchRef{i, j})
			batchMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase B: one round trip per remote owner, concurrently across owners.
	owners := make([]int, 0, len(batch))
	for o := range batch {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	err = runIndexed(w.procs, len(owners), func(oi int) error {
		owner := owners[oi]
		refs := batch[owner]
		peer := w.peers[owner]
		reqs := make([]sidecar.PullBGPRequest, len(refs))
		for k, ref := range refs {
			st := slots[ref.i][ref.j].st
			reqs[k] = sidecar.PullBGPRequest{
				Exporter: nbLists[ref.i][ref.j], Puller: names[ref.i],
				Since: st.Version, Seen: st.Seen,
			}
		}
		replies, err := peer.PullBGPBatchWire(reqs)
		if err != nil {
			return fmt.Errorf("core: worker %d batch-pulling %d exports from worker %d: %w", w.id, len(reqs), owner, err)
		}
		if len(replies) != len(reqs) {
			return fmt.Errorf("core: worker %d: batch pull from worker %d returned %d replies for %d requests", w.id, owner, len(replies), len(reqs))
		}
		for k, ref := range refs {
			s := &slots[ref.i][ref.j]
			s.ver, s.fresh, s.advs = replies[k].Version, replies[k].Fresh, replies[k].Advs
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase C: deterministic assembly in (node, neighbor) order — identical
	// to the sequential walk.
	exchanged := 0
	pending := map[string]map[string][]bgp.Advertisement{}
	for i, name := range names {
		for j := range slots[i] {
			s := &slots[i][j]
			if s.st == nil || !s.fresh {
				continue
			}
			s.st.Version, s.st.Seen = s.ver, true
			if pending[name] == nil {
				pending[name] = map[string][]bgp.Advertisement{}
			}
			pending[name][nbLists[i][j]] = s.advs
			exchanged += len(s.advs)
		}
	}
	w.pendingBGP = pending
	w.obsRoutesExchanged("bgp", exchanged)
	return nil
}

// ApplyBGP implements sidecar.WorkerAPI: phase 2 — apply the gathered
// imports and rerun decisions. The reply carries per-iteration progress:
// how many local nodes changed and how many Loc-RIB routes are settled.
// Each node mutates only its own process, so the per-node work runs on the
// pool; the needsRun map is read-only during the tasks (every node ends the
// phase with needsRun=false, applied in the sequential merge).
func (w *Worker) ApplyBGP() (sidecar.ApplyReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("apply-bgp")
	defer span.End()
	var reply sidecar.ApplyReply
	names := w.localNames
	type applyRes struct {
		isProc, ran, changed bool
		routes               int
	}
	res := make([]applyRes, len(names))
	err := runIndexed(w.procs, len(names), func(i int) error {
		proc, ok := w.bgpProcs[names[i]]
		if !ok {
			return nil
		}
		res[i].isProc = true
		imported := false
		for nb, advs := range w.pendingBGP[names[i]] {
			if proc.ImportFrom(nb, advs) {
				imported = true
			}
		}
		if w.needsRun[names[i]] || imported {
			res[i].ran = true
			res[i].changed = proc.RunDecision()
		}
		res[i].routes = proc.LocRIB().RouteCount()
		return nil
	})
	if err != nil {
		return reply, err
	}
	for i, name := range names {
		if !res[i].isProc {
			continue
		}
		w.needsRun[name] = false
		if res[i].ran && res[i].changed {
			reply.Changed = true
			reply.ChangedNodes++
		}
		reply.Routes += res[i].routes
	}
	w.pendingBGP = nil
	if err := w.tracker.CheckBudget(); err != nil {
		return reply, err
	}
	return reply, nil
}

// GatherOSPF implements sidecar.WorkerAPI (phase 1 for LSA flooding).
// Parallel/batched exactly like GatherBGP; the flat per-node LSA list is
// reassembled in neighbor order, which MergeLSAs depends on (a later LSA
// from the same router supersedes an earlier one).
func (w *Worker) GatherOSPF() error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("gather-ospf")
	defer span.End()
	names := w.localNames
	nbLists := make([][]string, len(names))
	slots := make([][]pullSlot, len(names))
	var batchMu sync.Mutex
	batch := map[int][]batchRef{}

	err := runIndexed(w.procs, len(names), func(i int) error {
		name := names[i]
		proc, ok := w.ospfProcs[name]
		if !ok {
			return nil
		}
		nbs := proc.NeighborNames()
		nbLists[i] = nbs
		ss := make([]pullSlot, len(nbs))
		slots[i] = ss
		for j, nb := range nbs {
			owner := w.assignment[nb]
			if owner == w.id {
				p, ok := w.ospfProcs[nb]
				if !ok {
					continue
				}
				st := w.ospfPulls.Get(name, nb)
				lsas, ver, fresh := p.LSAsTo(name, st.Version, st.Seen)
				ss[j] = pullSlot{st: st, ver: ver, fresh: fresh, lsas: lsas}
				continue
			}
			peer := w.peers[owner]
			if peer == nil {
				continue
			}
			ss[j].st = w.ospfPulls.Get(name, nb)
			batchMu.Lock()
			batch[owner] = append(batch[owner], batchRef{i, j})
			batchMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}

	owners := make([]int, 0, len(batch))
	for o := range batch {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	err = runIndexed(w.procs, len(owners), func(oi int) error {
		owner := owners[oi]
		refs := batch[owner]
		peer := w.peers[owner]
		reqs := make([]sidecar.PullLSAsRequest, len(refs))
		for k, ref := range refs {
			st := slots[ref.i][ref.j].st
			reqs[k] = sidecar.PullLSAsRequest{
				Exporter: nbLists[ref.i][ref.j], Puller: names[ref.i],
				Since: st.Version, Seen: st.Seen,
			}
		}
		replies, err := peer.PullLSABatchWire(reqs)
		if err != nil {
			return fmt.Errorf("core: worker %d batch-pulling %d LSA exports from worker %d: %w", w.id, len(reqs), owner, err)
		}
		if len(replies) != len(reqs) {
			return fmt.Errorf("core: worker %d: batch pull from worker %d returned %d replies for %d requests", w.id, owner, len(replies), len(reqs))
		}
		for k, ref := range refs {
			s := &slots[ref.i][ref.j]
			s.ver, s.fresh, s.lsas = replies[k].Version, replies[k].Fresh, replies[k].LSAs
		}
		return nil
	})
	if err != nil {
		return err
	}

	exchanged := 0
	pending := map[string][]*ospf.LSA{}
	for i, name := range names {
		for j := range slots[i] {
			s := &slots[i][j]
			if s.st == nil || !s.fresh {
				continue
			}
			s.st.Version, s.st.Seen = s.ver, true
			pending[name] = append(pending[name], s.lsas...)
			exchanged += len(s.lsas)
		}
	}
	w.pendingLSAs = pending
	w.obsRoutesExchanged("ospf", exchanged)
	return nil
}

// ApplyOSPF implements sidecar.WorkerAPI (phase 2 for LSA merge + SPF).
// Per-node LSDB merges and SPF runs are independent, so they run on the
// pool with a deterministic sequential merge of the reply counters.
func (w *Worker) ApplyOSPF() (sidecar.ApplyReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("apply-ospf")
	defer span.End()
	var reply sidecar.ApplyReply
	names := w.localNames
	type applyRes struct {
		isProc, changed bool
		routes          int
	}
	res := make([]applyRes, len(names))
	err := runIndexed(w.procs, len(names), func(i int) error {
		proc, ok := w.ospfProcs[names[i]]
		if !ok {
			return nil
		}
		res[i].isProc = true
		merged := proc.MergeLSAs(w.pendingLSAs[names[i]])
		if merged || proc.Routes().Len() == 0 {
			if proc.RunSPF() {
				res[i].changed = true
			}
		}
		if merged {
			res[i].changed = true
		}
		res[i].routes = proc.Routes().RouteCount()
		return nil
	})
	if err != nil {
		return reply, err
	}
	for i := range names {
		if !res[i].isProc {
			continue
		}
		if res[i].changed {
			reply.Changed = true
			reply.ChangedNodes++
		}
		reply.Routes += res[i].routes
	}
	w.pendingLSAs = nil
	if err := w.tracker.CheckBudget(); err != nil {
		return reply, err
	}
	return reply, nil
}

// liteRoute strips heavyweight path attributes, keeping only what FIB
// construction needs. This is what lets prefix sharding lower the live
// footprint: the full attribute set is freed with the shard.
func liteRoute(r *route.Route) *route.Route {
	return &route.Route{
		Prefix:      r.Prefix,
		Protocol:    r.Protocol,
		NextHop:     r.NextHop,
		NextHopNode: r.NextHopNode,
	}
}

// EndShard implements sidecar.WorkerAPI: harvest the shard's routes into
// the FIB-building state (or spill them to disk) and free the shard's
// full-attribute RIBs.
func (w *Worker) EndShard() (sidecar.EndShardReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("end-shard")
	defer func() {
		span.End()
		w.obsEndShard()
	}()
	w.flight.Record("phase", "end-shard %d", w.shardIndex)
	reply := sidecar.EndShardReply{}
	// Drop any previously harvested results for this shard's prefixes: a
	// merged-shard recompute must replace them wholesale, including
	// prefixes the recompute decided NOT to install.
	for _, name := range w.localNames {
		for _, p := range w.shardPrefixes {
			w.fibRIBs[name].Remove(p)
			if w.keepRIBs {
				w.finalRIBs[name].Remove(p)
			}
		}
		if w.shardPrefixes == nil {
			w.fibRIBs[name].Clear()
			if w.keepRIBs {
				w.finalRIBs[name].Clear()
			}
		}
	}
	// Harvest with one backing array of stripped copies per node (plus one
	// pointer array) instead of a fresh slice per prefix and a fresh Route
	// per entry — the dominant allocation churn of the shard loop (see
	// BenchmarkEndShardHarvest). Spill mode reuses w.liteScratch across
	// shards: the copies are dead once the shard hits disk.
	shardLite := map[string][]*route.Route{}
	scratchOff := 0
	scratch := func(n int) []route.Route {
		if scratchOff+n > len(w.liteScratch) {
			// A fresh, larger block. Pointers already handed out keep
			// referencing the old block, which stays correct; the new block
			// is what future shards reuse.
			size := 2 * (scratchOff + n)
			w.liteScratch = make([]route.Route, size)
			scratchOff = 0
		}
		s := w.liteScratch[scratchOff : scratchOff+n : scratchOff+n]
		scratchOff += n
		return s
	}
	for _, name := range w.localNames {
		proc, ok := w.bgpProcs[name]
		if !ok {
			continue
		}
		for _, list := range proc.UsedConditions() {
			reply.Conditions = append(reply.Conditions, sidecar.ConditionReport{Device: name, PrefixList: list})
		}
		rib := proc.LocRIB()
		total := rib.RouteCount()
		reply.Routes += total
		if w.spillDir != "" {
			lites := make([]*route.Route, 0, total)
			rib.Walk(func(p route.Prefix, rs []*route.Route) {
				backing := scratch(len(rs))
				for i, r := range rs {
					backing[i] = route.Route{Prefix: r.Prefix, Protocol: r.Protocol, NextHop: r.NextHop, NextHopNode: r.NextHopNode}
					lites = append(lites, &backing[i])
				}
				if w.keepRIBs {
					w.finalRIBs[name].SetRoutes(p, rs)
				}
			})
			shardLite[name] = lites
		} else {
			backing := make([]route.Route, total)
			ptrs := make([]*route.Route, total)
			off := 0
			rib.Walk(func(p route.Prefix, rs []*route.Route) {
				lites := ptrs[off : off+len(rs) : off+len(rs)]
				for i, r := range rs {
					backing[off+i] = route.Route{Prefix: r.Prefix, Protocol: r.Protocol, NextHop: r.NextHop, NextHopNode: r.NextHopNode}
					lites[i] = &backing[off+i]
				}
				off += len(rs)
				w.fibRIBs[name].SetRoutes(p, lites)
				if w.keepRIBs {
					w.finalRIBs[name].SetRoutes(p, rs)
				}
			})
		}
		// Free the shard's full-attribute state now; the next BeginShard
		// would do it anyway, but the paper's point is that the peak
		// drops when the shard's routes leave memory.
		proc.ResetForShard(nil)
	}
	if w.spillDir != "" {
		path := filepath.Join(w.spillDir, fmt.Sprintf("w%d-shard%d-run%d.gob", w.id, w.shardIndex, len(w.spills)))
		f, err := os.Create(path)
		if err != nil {
			return reply, fmt.Errorf("core: worker %d spilling shard %d: %w", w.id, w.shardIndex, err)
		}
		payload := spillPayload{Prefixes: w.shardPrefixes, Routes: shardLite}
		// On any failure, close AND remove the partial file: a truncated
		// .gob left behind would fail to decode at ComputeDP reload time.
		if err := gob.NewEncoder(f).Encode(payload); err != nil {
			f.Close()
			os.Remove(path)
			return reply, fmt.Errorf("core: worker %d spilling shard %d: %w", w.id, w.shardIndex, err)
		}
		if err := f.Close(); err != nil {
			os.Remove(path)
			return reply, fmt.Errorf("core: worker %d spilling shard %d: %w", w.id, w.shardIndex, err)
		}
		if st, err := os.Stat(path); err == nil {
			w.obsSpill(st.Size())
		}
		w.spills = append(w.spills, path)
	} else {
		var bytes int64
		for _, rib := range w.fibRIBs {
			bytes += int64(rib.RouteCount()) * route.LiteModelBytes
		}
		w.tracker.Set("fib.accum", bytes)
	}
	reply.ModelBytes = w.tracker.Current()
	return reply, w.tracker.CheckBudget()
}

// ApplyDelta implements sidecar.WorkerAPI: swap changed local device
// models into resident state after a converged run, without the full reset
// of Setup. Changed devices get their BGP processes rebuilt (every shard
// round cold-resets them anyway, so a fresh process is indistinguishable
// from a reset one), and prefixes no device originates any more are purged
// from the accumulated per-node results. OSPF processes are deliberately
// left alone: any delta that could change OSPF behaviour classifies as a
// topology change on the controller and takes the full Setup path instead.
func (w *Worker) ApplyDelta(req sidecar.DeltaRequest) (sidecar.DeltaReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("apply-delta")
	defer span.End()
	w.flight.Record("phase", "apply-delta: %d configs, %d purged prefixes",
		len(req.Configs), len(req.PurgePrefixes))
	w.log.Debug("apply-delta",
		obs.FInt("worker", w.id),
		obs.FInt("configs", len(req.Configs)),
		obs.FInt("purge_prefixes", len(req.PurgePrefixes)))
	var reply sidecar.DeltaReply
	if len(req.Configs) > 0 {
		files := make(map[string]string, len(req.Configs))
		for name, text := range req.Configs {
			files[name+".cfg"] = text
		}
		snap, err := config.ParseTexts(files)
		if err != nil {
			return reply, fmt.Errorf("core: worker %d parsing delta configs: %w", w.id, err)
		}
		for name, dev := range snap.Devices {
			if _, ok := w.devices[name]; !ok {
				return reply, fmt.Errorf("core: worker %d received delta for non-local device %q", w.id, name)
			}
			w.devices[name] = dev
			if dev.BGP != nil {
				w.bgpProcs[name] = bgp.NewProcess(dev, w.sessions[name], w.tracker)
			} else {
				delete(w.bgpProcs, name)
			}
			reply.Devices++
		}
	}
	if len(req.PurgePrefixes) > 0 {
		for _, name := range w.localNames {
			for _, p := range req.PurgePrefixes {
				w.fibRIBs[name].Remove(p)
				if w.keepRIBs {
					w.finalRIBs[name].Remove(p)
				}
			}
		}
		// In spill mode the in-memory removal above is not enough: ComputeDP
		// replays every spill file in write order, which would resurrect the
		// purged prefixes. Append a purge record — non-nil Prefixes (nil
		// means clear-all) with no routes — so the replay forgets them too.
		if w.spillDir != "" && len(w.spills) > 0 {
			path := filepath.Join(w.spillDir, fmt.Sprintf("w%d-delta-purge-run%d.gob", w.id, len(w.spills)))
			f, err := os.Create(path)
			if err != nil {
				return reply, fmt.Errorf("core: worker %d spilling delta purge: %w", w.id, err)
			}
			payload := spillPayload{Prefixes: req.PurgePrefixes, Routes: map[string][]*route.Route{}}
			if err := gob.NewEncoder(f).Encode(payload); err != nil {
				f.Close()
				os.Remove(path)
				return reply, fmt.Errorf("core: worker %d spilling delta purge: %w", w.id, err)
			}
			if err := f.Close(); err != nil {
				os.Remove(path)
				return reply, fmt.Errorf("core: worker %d spilling delta purge: %w", w.id, err)
			}
			w.spills = append(w.spills, path)
		}
	}
	return reply, nil
}

// ComputeDP implements sidecar.WorkerAPI: build FIBs and per-port
// predicates for every local node on this worker's private BDD engine.
func (w *Worker) ComputeDP() (sidecar.ComputeDPReply, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("compute-dp")
	defer span.End()
	reply := sidecar.ComputeDPReply{}
	// Reload spilled shard results in write order: each file first clears
	// its shard's prefixes so a merged-shard recompute supersedes earlier
	// stale spills.
	for _, path := range w.spills {
		f, err := os.Open(path)
		if err != nil {
			return reply, fmt.Errorf("core: worker %d loading spill: %w", w.id, err)
		}
		var payload spillPayload
		err = gob.NewDecoder(f).Decode(&payload)
		f.Close()
		if err != nil {
			return reply, fmt.Errorf("core: worker %d decoding spill: %w", w.id, err)
		}
		for _, name := range w.localNames {
			for _, p := range payload.Prefixes {
				w.fibRIBs[name].Remove(p)
			}
			if payload.Prefixes == nil {
				w.fibRIBs[name].Clear()
			}
		}
		for name, routes := range payload.Routes {
			byPrefix := map[route.Prefix][]*route.Route{}
			for _, r := range routes {
				byPrefix[r.Prefix] = append(byPrefix[r.Prefix], r)
			}
			for p, rs := range byPrefix {
				w.fibRIBs[name].SetRoutes(p, rs)
			}
		}
	}
	if w.spillDir != "" {
		var bytes int64
		for _, rib := range w.fibRIBs {
			bytes += int64(rib.RouteCount()) * route.LiteModelBytes
		}
		w.tracker.Set("fib.accum", bytes)
	}

	w.engine = w.layout.NewEngine(w.maxBDD)
	w.engine.SetGrowObserver(func(delta int) {
		w.tracker.Add("bdd", int64(delta)*bdd.NodeModelBytes)
	})
	// The marker pool reuses the worker's phase parallelism; at -procs 1
	// the mark stays fully sequential. GCWipe (benchmark A/B knob) reverts
	// the whole collector to seed behavior: one mark goroutine and the op
	// cache wiped on every collection.
	if w.gcWipe {
		w.engine.SetGCParallelism(1)
		w.engine.SetGCRelocation(false)
	} else {
		w.engine.SetGCParallelism(w.procs)
		w.engine.SetGCRelocation(true)
	}
	// Per-node FIB builds and BDD compiles are independent given the
	// concurrent engine, so they run on the pool; the reply counters and
	// error list merge sequentially in name order.
	w.nodesDP = map[string]*dataplane.NodeDP{}
	var fibBytes int64
	type dpRes struct {
		errs    []string
		entries int
		bytes   int64
		node    *dataplane.NodeDP
	}
	names := w.localNames
	res := make([]dpRes, len(names))
	err := runIndexed(w.procs, len(names), func(i int) error {
		name := names[i]
		dev := w.devices[name]
		var ribs []*route.RIB
		ribs = append(ribs, w.fibRIBs[name])
		if op, ok := w.ospfProcs[name]; ok {
			ribs = append(ribs, op.Routes())
		}
		fib, errs := dataplane.BuildFIB(dev, ribs...)
		for _, e := range errs {
			res[i].errs = append(res[i].errs, e.Error())
		}
		res[i].entries = len(fib.Entries)
		res[i].bytes = fib.ModelBytes()
		n, err := dataplane.CompileNode(w.engine, dev, fib)
		if err != nil {
			return err
		}
		res[i].node = n
		return nil
	})
	if err != nil {
		return reply, err
	}
	for i, name := range names {
		reply.Errors = append(reply.Errors, res[i].errs...)
		reply.FIBEntries += res[i].entries
		fibBytes += res[i].bytes
		w.nodesDP[name] = res[i].node
	}
	w.tracker.Set("fib.compiled", fibBytes)
	reply.BDDNodes = w.engine.NodeCount()
	w.vitals.bddNodes.Store(int64(reply.BDDNodes))
	w.obsBDD(reply.BDDNodes, false)
	return reply, w.tracker.CheckBudget()
}

// BeginQueryBatch implements sidecar.WorkerAPI: arm one symbolic pass of
// one or more queries, wiring waypoint write rules and the per-query
// destination sets for Arrive/Exit classification. Pass-wide state
// (transit metadata bits, TTL) comes from the first query — the controller
// only batches BatchCompatible queries, and the worker re-checks. Per-query
// dest sets are kept by tag index; in a multi-query pass injected packets
// carry dataplane.QueryTag(i) source prefixes so the wavefront never merges
// packets across queries (packetSlot keys on the tagged source).
func (w *Worker) BeginQueryBatch(req sidecar.QueryBatchRequest) error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("begin-query-batch")
	defer span.End()
	if w.nodesDP == nil {
		return fmt.Errorf("core: worker %d: ComputeDP must run before queries", w.id)
	}
	if len(req.Queries) == 0 {
		return fmt.Errorf("core: worker %d: empty query batch", w.id)
	}
	w.flight.Record("phase", "begin-query-batch: %d queries", len(req.Queries))
	qs := req.Queries
	for i := range qs {
		if err := qs[i].Validate(w.layout); err != nil {
			return err
		}
		if !dataplane.BatchCompatible(&qs[0], &qs[i]) {
			return fmt.Errorf("core: worker %d: query %d is not batch-compatible", w.id, i)
		}
	}
	w.query = &qs[0]
	w.batchDests = make([]map[string]bool, len(qs))
	for i := range qs {
		if len(qs[i].Dests) == 0 {
			continue
		}
		ds := make(map[string]bool, len(qs[i].Dests))
		for _, d := range qs[i].Dests {
			ds[d] = true
		}
		w.batchDests[i] = ds
	}
	w.resetQueryState()
	return nil
}

// resetQueryState is the tail of BeginQueryBatch: stamp the transit
// metadata bits, clear the wavefront, and GC the previous
// query's garbage. Call with phaseMu held and w.query set.
func (w *Worker) resetQueryState() {
	for name, n := range w.nodesDP {
		n.MetaBit = w.query.MetaBitFor(name)
	}
	w.qmu.Lock()
	w.inbox = nil
	w.queue = map[packetSlot]bdd.Ref{}
	w.queueLen = 0
	w.outcomes = nil
	w.qround = 0
	// Wire sessions are per phase: drop receive state and start the send
	// sessions over so every peer's first message is self-contained.
	w.wireInbox = nil
	w.recvTables = map[int]*bdd.WireTable{}
	w.qmu.Unlock()
	w.sendSessions = map[int]*bdd.WireSession{}
	// Collect the previous query's garbage before this one starts.
	w.gcEngine()
}

// Inject implements sidecar.WorkerAPI: queue a symbolic packet at a local
// source node.
func (w *Worker) Inject(req sidecar.InjectRequest) error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	if w.assignment[req.Source] != w.id {
		return fmt.Errorf("core: worker %d does not host source %q", w.id, req.Source)
	}
	w.qmu.Lock()
	defer w.qmu.Unlock()
	// In a batch pass the packet circulates under its tagged source, which
	// keeps per-query packets in distinct wavefront slots end to end.
	w.inbox = append(w.inbox, injection{source: req.Tag + req.Source, node: req.Source, packet: req.Packet})
	return nil
}

// DPRound implements sidecar.WorkerAPI: process one wavefront hop for all
// queued packets on local nodes (Figure 3's per-worker forwarding), sending
// boundary-crossing packets to peer sidecars. At procs>1 the per-slot
// Forward calls run concurrently against the shared engine (see
// dpRoundParallel); procs<=1 keeps the original sequential body, including
// its mid-round adaptive GC.
func (w *Worker) DPRound() error {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	if w.query == nil {
		return fmt.Errorf("core: worker %d: no active query", w.id)
	}
	span := w.obsWorkerSpan("dp-round")
	defer span.End()
	if w.procs > 1 {
		return w.dpRoundParallel()
	}
	// Drain the inbox into the queue (deserializing on our goroutine).
	// Only deliveries stamped for this round or earlier materialize;
	// later-stamped ones park until their round.
	w.qmu.Lock()
	cur := w.queue
	w.queue = map[packetSlot]bdd.Ref{}
	w.queueLen = 0
	round := w.qround
	w.qround++
	w.qmu.Unlock()
	if err := w.drainInbox(cur, round); err != nil {
		return err
	}
	if len(cur) == 0 {
		return nil
	}

	// Deterministic processing order.
	slots := make([]packetSlot, 0, len(cur))
	for s := range cur {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.inPort != b.inPort {
			return a.inPort < b.inPort
		}
		return a.source < b.source
	})

	nextLocal := map[packetSlot]bdd.Ref{}
	remote := map[int][]wireItem{}
	for si, s := range slots {
		// Mid-round adaptive GC: heavy rounds create garbage faster than
		// the between-round collection can bound. Pending slots, the
		// partial next wavefront, and packets awaiting shipment to other
		// workers (live refs until ship time, when the whole round shares
		// one substrate per peer) are extra roots.
		if w.engine.NodeCount() > w.pacer.midThreshold() {
			remap := w.gcWithExtraRoots(func(add func(bdd.Ref)) {
				for _, rest := range slots[si:] {
					add(cur[rest])
				}
				for _, r := range nextLocal {
					add(r)
				}
				for _, items := range remote {
					for _, it := range items {
						add(it.out)
					}
				}
			})
			for _, rest := range slots[si:] {
				cur[rest] = remap(cur[rest])
			}
			for k, r := range nextLocal {
				nextLocal[k] = remap(r)
			}
			for _, items := range remote {
				for i := range items {
					items[i].out = remap(items[i].out)
				}
			}
		}
		n, ok := w.nodesDP[s.node]
		if !ok {
			return fmt.Errorf("core: worker %d received packet for non-local node %q", w.id, s.node)
		}
		res, err := n.Forward(w.engine, cur[s], s.inPort)
		if err != nil {
			return err
		}
		w.classify(s.source, s.node, dataplane.Arrive, res.Local)
		w.classify(s.source, s.node, dataplane.Blackhole, res.Dropped)
		for port, out := range res.Out {
			dest, ok := w.adjIndex[s.node][port]
			if !ok {
				// Edge port: leaves the network here.
				state := dataplane.Exit
				if w.isDest(s.source, s.node) {
					state = dataplane.Arrive
				}
				w.classify(s.source, s.node, state, out)
				continue
			}
			owner := w.assignment[dest.Node]
			if owner == w.id {
				slot := packetSlot{source: s.source, node: dest.Node, inPort: dest.Port}
				if prev, ok := nextLocal[slot]; ok {
					merged, err := w.engine.Or(prev, out)
					if err != nil {
						return err
					}
					nextLocal[slot] = merged
				} else {
					nextLocal[slot] = out
				}
			} else {
				remote[owner] = append(remote[owner], wireItem{
					source: s.source,
					node:   dest.Node,
					inPort: dest.Port,
					out:    out,
				})
			}
		}
	}

	// Ship boundary crossings (③→④→⑤ in Figure 3): one shared-substrate
	// message per destination worker. The crossings belong to the next
	// round.
	if err := w.shipRemote(remote, round+1); err != nil {
		return err
	}

	w.qmu.Lock()
	w.queue = nextLocal
	w.queueLen = len(nextLocal)
	w.qmu.Unlock()

	// Adaptive BDD garbage collection: intermediate packet sets from
	// this round are dead; only predicates, queued packets, and recorded
	// outcomes stay live. Per-worker engines keep these collections small
	// and un-contended (§4.3). The grow observer has already charged the
	// intra-round high water to the tracker, so the peak is preserved.
	// The pacer picks the growth threshold from measured pause cost and
	// reclaim yield (see gcpacer.go).
	if w.engine.NodeCount() > w.pacer.postThreshold() {
		w.gcEngine()
	}
	return w.tracker.CheckBudget()
}

// dpRoundParallel is DPRound's multi-core body: the slots' Forward calls
// run on the pool against the concurrent engine, then classification, next-wavefront
// merging, and peer delivery happen sequentially in slot order so outcomes
// and deliveries stay deterministic. The mid-round adaptive GC runs at
// chunk boundaries (see below) — the engine's collector is stop-the-world
// and must not run under the pool.
func (w *Worker) dpRoundParallel() error {
	w.qmu.Lock()
	cur := w.queue
	w.queue = map[packetSlot]bdd.Ref{}
	w.queueLen = 0
	round := w.qround
	w.qround++
	w.qmu.Unlock()
	if err := w.drainInbox(cur, round); err != nil {
		return err
	}
	if len(cur) == 0 {
		return nil
	}

	// Deterministic processing order.
	slots := make([]packetSlot, 0, len(cur))
	for s := range cur {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.inPort != b.inPort {
			return a.inPort < b.inPort
		}
		return a.source < b.source
	})

	type portOut struct {
		out   bdd.Ref
		edge  bool
		dest  dataplane.PortDest
		owner int
	}
	type fwdRes struct {
		local, dropped bdd.Ref
		ports          []portOut
	}
	nextLocal := map[packetSlot]bdd.Ref{}
	res := make([]fwdRes, len(slots))
	// Slots are processed in chunks: each chunk's Forward calls run on the
	// pool, then classification and next-wavefront
	// merging happen sequentially in slot order. Chunk boundaries are the
	// safe points for the mid-round adaptive GC the sequential path does per
	// slot — the collector is stop-the-world, so it cannot run under the
	// pool, but heavy rounds still need garbage bounded mid-round.
	chunk := 64 * w.procs
	for lo := 0; lo < len(slots); lo += chunk {
		hi := lo + chunk
		if hi > len(slots) {
			hi = len(slots)
		}
		if w.engine.NodeCount() > w.pacer.midThreshold() {
			remap := w.gcWithExtraRoots(func(add func(bdd.Ref)) {
				for _, rest := range slots[lo:] {
					add(cur[rest])
				}
				for _, r := range nextLocal {
					add(r)
				}
			})
			for _, rest := range slots[lo:] {
				cur[rest] = remap(cur[rest])
			}
			for k, r := range nextLocal {
				nextLocal[k] = remap(r)
			}
		}
		err := runIndexed(w.procs, hi-lo, func(i int) error {
			si := lo + i
			s := slots[si]
			n, ok := w.nodesDP[s.node]
			if !ok {
				return fmt.Errorf("core: worker %d received packet for non-local node %q", w.id, s.node)
			}
			r, err := n.Forward(w.engine, cur[s], s.inPort)
			if err != nil {
				return err
			}
			res[si].local, res[si].dropped = r.Local, r.Dropped
			ports := make([]string, 0, len(r.Out))
			for port := range r.Out {
				ports = append(ports, port)
			}
			sort.Strings(ports)
			for _, port := range ports {
				po := portOut{out: r.Out[port]}
				dest, ok := w.adjIndex[s.node][port]
				if !ok {
					po.edge = true
				} else {
					po.dest = dest
					po.owner = w.assignment[dest.Node]
				}
				res[si].ports = append(res[si].ports, po)
			}
			return nil
		})
		if err != nil {
			return err
		}

		// chunkWire coalesces every boundary-crossing packet of this chunk
		// per destination worker; it is flushed before the next chunk so the
		// refs never have to survive a chunk-boundary GC.
		chunkWire := map[int][]wireItem{}
		for si := lo; si < hi; si++ {
			s := slots[si]
			w.classify(s.source, s.node, dataplane.Arrive, res[si].local)
			w.classify(s.source, s.node, dataplane.Blackhole, res[si].dropped)
			for _, po := range res[si].ports {
				if po.edge {
					// Edge port: leaves the network here.
					state := dataplane.Exit
					if w.isDest(s.source, s.node) {
						state = dataplane.Arrive
					}
					w.classify(s.source, s.node, state, po.out)
					continue
				}
				if po.owner == w.id {
					slot := packetSlot{source: s.source, node: po.dest.Node, inPort: po.dest.Port}
					if prev, ok := nextLocal[slot]; ok {
						merged, err := w.engine.Or(prev, po.out)
						if err != nil {
							return err
						}
						nextLocal[slot] = merged
					} else {
						nextLocal[slot] = po.out
					}
				} else {
					chunkWire[po.owner] = append(chunkWire[po.owner], wireItem{
						source: s.source,
						node:   po.dest.Node,
						inPort: po.dest.Port,
						out:    po.out,
					})
				}
			}
		}
		// Ship this chunk's crossings: one substrate message per
		// destination worker (③→④→⑤ in Figure 3, batched).
		if err := w.shipRemote(chunkWire, round+1); err != nil {
			return err
		}
	}

	w.qmu.Lock()
	w.queue = nextLocal
	w.queueLen = len(nextLocal)
	w.qmu.Unlock()

	if w.engine.NodeCount() > w.pacer.postThreshold() {
		w.gcEngine()
	}
	return w.tracker.CheckBudget()
}

// gcEngine collects the worker's BDD engine, remapping every live ref.
func (w *Worker) gcEngine() {
	w.gcWithExtraRoots(nil)
}

// gcWithExtraRoots collects with the standard roots plus caller-provided
// extras; the caller must remap any extra refs itself using the returned
// function.
func (w *Worker) gcWithExtraRoots(extra func(add func(bdd.Ref))) func(bdd.Ref) bdd.Ref {
	if w.engine == nil {
		return func(r bdd.Ref) bdd.Ref { return r }
	}
	gcStart := time.Now()
	nodesBefore := w.engine.NodeCount()
	// GC spans are created directly rather than through obsWorkerSpan: the
	// pending remote trace parent belongs to the phase span of the RPC in
	// flight, and a collection is an implementation detail inside it.
	var gcSpan *obs.Span
	if w.obs != nil && w.obs.tracer != nil {
		if w.obs.shardSpan != nil {
			gcSpan = w.obs.shardSpan.Child("gc", obs.Int("nodes_before", nodesBefore))
		} else {
			gcSpan = w.obs.tracer.Start("gc", obs.Int("nodes_before", nodesBefore)).SetWorker(w.id)
		}
	}
	var roots []bdd.Ref
	if extra != nil {
		extra(func(r bdd.Ref) { roots = append(roots, r) })
	}
	for _, n := range w.nodesDP {
		roots = append(roots, n.RootRefs()...)
	}
	w.qmu.Lock()
	for _, r := range w.queue {
		roots = append(roots, r)
	}
	// Materialized wire tables stay live across a GC: parked deliveries in
	// wireInbox may still splice onto them, so their refs are roots and are
	// remapped in place below.
	for _, t := range w.recvTables {
		roots = append(roots, t.Refs()...)
	}
	w.qmu.Unlock()
	for _, o := range w.outcomes {
		roots = append(roots, o.Packet)
	}
	remap := w.engine.GC(roots)
	for _, n := range w.nodesDP {
		n.Remap(remap)
	}
	w.qmu.Lock()
	for k, r := range w.queue {
		w.queue[k] = remap(r)
	}
	for _, t := range w.recvTables {
		t.Remap(remap)
	}
	w.qmu.Unlock()
	for i := range w.outcomes {
		w.outcomes[i].Packet = remap(w.outcomes[i].Packet)
	}
	// Send sessions key on local refs, which the collection just renumbered:
	// every delta session starts over at the next ship.
	for _, s := range w.sendSessions {
		s.Reset()
	}
	if len(w.sendSessions) > 0 {
		w.flight.Record("wire", "reset %d send sessions after gc", len(w.sendSessions))
	}
	st := w.engine.GCStats()
	w.pacer.observe(st)
	if w.gcPauses != nil {
		w.gcPauses.Observe(st.LastPause)
		w.vitals.gcPauseP99.Store(w.gcPauses.Quantile(0.99).Microseconds())
	}
	nodesAfter := w.engine.NodeCount()
	w.vitals.bddNodes.Store(int64(nodesAfter))
	w.obsBDD(nodesAfter, true)
	w.obsGC(st)
	gcSpan.SetAttr("nodes_after", fmt.Sprint(nodesAfter))
	gcSpan.SetAttr("mark_us", fmt.Sprint(st.LastMark.Microseconds()))
	gcSpan.SetAttr("sweep_us", fmt.Sprint(st.LastSweep.Microseconds()))
	gcSpan.SetAttr("relocate_us", fmt.Sprint(st.LastRelocate.Microseconds()))
	gcSpan.SetAttr("relocated", fmt.Sprint(st.LastCacheRelocated))
	gcSpan.SetAttr("mark_procs", fmt.Sprint(st.LastMarkProcs))
	gcSpan.End()
	w.flight.Record("gc", "%d -> %d nodes in %s (mark %s/%d, sweep %s, relocate %s, cache %d kept / %d dropped)",
		nodesBefore, nodesAfter, time.Since(gcStart).Round(time.Microsecond),
		st.LastMark.Round(time.Microsecond), st.LastMarkProcs,
		st.LastSweep.Round(time.Microsecond), st.LastRelocate.Round(time.Microsecond),
		st.LastCacheRelocated, st.LastCacheDropped)
	return remap
}

// isDest reports whether delivery at node counts as Arrive for the query
// that owns source. In a multi-query pass the source's tag index selects
// the query's dest set; a one-query pass injects untagged sources, which
// belong to query 0.
func (w *Worker) isDest(source, node string) bool {
	i := 0
	if len(w.batchDests) > 1 {
		idx, _, ok := dataplane.SplitQueryTag(source)
		if !ok || idx >= len(w.batchDests) {
			return true
		}
		i = idx
	}
	ds := w.batchDests[i]
	return ds == nil || ds[node]
}

func (w *Worker) classify(source, node string, state dataplane.FinalState, pkt bdd.Ref) {
	if pkt == bdd.False {
		return
	}
	if state == dataplane.Arrive && !w.isDest(source, node) {
		state = dataplane.Exit
	}
	w.outcomes = append(w.outcomes, dataplane.Outcome{Source: source, Node: node, State: state, Packet: pkt})
}

// HasWork implements sidecar.WorkerAPI.
func (w *Worker) HasWork() (bool, error) {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	return len(w.inbox) > 0 || len(w.wireInbox) > 0 || w.queueLen > 0, nil
}

// FinishQuery implements sidecar.WorkerAPI: whatever still circulates has
// exceeded the TTL (Loop); serialize and return all outcomes, whose packets
// share one set-encoded substrate (root i pairs with Outcomes[i]).
func (w *Worker) FinishQuery() (sidecar.OutcomeBatch, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	span := w.obsWorkerSpan("finish-query")
	defer span.End()
	w.qmu.Lock()
	stragglers := w.queue
	w.queue = map[packetSlot]bdd.Ref{}
	w.queueLen = 0
	w.qmu.Unlock()
	// Deliveries that raced the controller's convergence check are loops
	// too, whatever round they were stamped for; drainInbox also
	// materializes any parked wire batches.
	if err := w.drainInbox(stragglers, math.MaxInt); err != nil {
		return sidecar.OutcomeBatch{}, err
	}
	slots := make([]packetSlot, 0, len(stragglers))
	for s := range stragglers {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.inPort != b.inPort {
			return a.inPort < b.inPort
		}
		return a.source < b.source
	})
	for _, s := range slots {
		w.outcomes = append(w.outcomes, dataplane.Outcome{Source: s.source, Node: s.node, State: dataplane.Loop, Packet: stragglers[s]})
	}

	batch := sidecar.OutcomeBatch{Outcomes: make([]dataplane.RawOutcome, len(w.outcomes))}
	refs := make([]bdd.Ref, len(w.outcomes))
	for i, o := range w.outcomes {
		refs[i] = o.Packet
		batch.Outcomes[i] = dataplane.RawOutcome{Source: o.Source, Node: o.Node, State: o.State}
	}
	batch.Wire = w.engine.SerializeSet(refs)
	w.obsWireBytes(len(batch.Wire))
	w.outcomes = nil
	return batch, nil
}

// CollectRIBs implements sidecar.WorkerAPI: the merged full RIBs of local
// nodes (requires KeepRIBs).
func (w *Worker) CollectRIBs() (map[string][]*route.Route, error) {
	w.phaseMu.Lock()
	defer w.phaseMu.Unlock()
	if !w.keepRIBs {
		return nil, fmt.Errorf("core: worker %d was set up with KeepRIBs=false", w.id)
	}
	out := map[string][]*route.Route{}
	for name, rib := range w.finalRIBs {
		out[name] = rib.All()
	}
	return out, nil
}

// PullSpans implements sidecar.WorkerAPI: drain a batch of completed spans
// from the export ring, stamping the reply with the local wall clock so the
// controller can estimate this worker's offset. Deliberately does NOT take
// phaseMu — the controller's background harvester must be able to drain the
// ring while a long phase (convergence, DP compute) holds the phase lock.
func (w *Worker) PullSpans(req sidecar.PullSpansRequest) (sidecar.PullSpansReply, error) {
	reply := sidecar.PullSpansReply{NowUnixMicro: time.Now().UnixMicro()}
	if req.WithFlight {
		reply.Flight = w.flight.Page(0)
	}
	if w.obs == nil || w.obs.tracer == nil {
		return reply, nil
	}
	max := req.Max
	if max <= 0 {
		max = 2048
	}
	reply.Spans, reply.Dropped, reply.More = w.obs.tracer.DrainExport(max)
	return reply, nil
}

// Stats implements sidecar.WorkerAPI.
func (w *Worker) Stats() (sidecar.WorkerStats, error) {
	w.qmu.Lock()
	pulls, packets := w.statsPulls, w.statsPackets
	w.qmu.Unlock()
	st := sidecar.WorkerStats{
		WorkerID:   w.id,
		Nodes:      len(w.devices),
		PeakBytes:  w.tracker.Peak(),
		NowBytes:   w.tracker.Current(),
		RoutePulls: pulls,
		PacketsIn:  packets,
	}
	if w.engine != nil {
		st.BDDNodes = w.engine.NodeCount()
		gs := w.engine.GCStats()
		st.GCRuns = gs.Runs
		st.GCPauseMicros = gs.TotalPause.Microseconds()
		st.GCCacheRelocated = gs.CacheRelocated
	}
	if w.gcPauses != nil {
		st.GCPauseP50Micros = w.gcPauses.Quantile(0.50).Microseconds()
		st.GCPauseP99Micros = w.gcPauses.Quantile(0.99).Microseconds()
	}
	return st, nil
}

// workerVitals mirrors phase-guarded worker state behind atomics so the
// PullStats probe reads a consistent-enough snapshot without phaseMu.
// Writers hold phaseMu (phase boundaries are the only mutation points);
// readers are lock-free.
type workerVitals struct {
	id         atomic.Int64
	shard      atomic.Int64
	bddNodes   atomic.Int64
	gcPauseP99 atomic.Int64 // microseconds
}

// reset re-arms the mirror for a (re-)Setup. Caller holds phaseMu.
func (v *workerVitals) reset(workerID int) {
	v.id.Store(int64(workerID))
	v.shard.Store(0)
	v.bddNodes.Store(0)
	v.gcPauseP99.Store(0)
}

// PullStats implements sidecar.WorkerAPI: the fleet health sampler's
// vitals probe. Like Ping/Stats/PullSpans it never takes phaseMu — the
// controller polls it at heartbeat cadence while phases run — so all
// phase-owned state arrives via the atomic vitals mirror.
func (w *Worker) PullStats(_ sidecar.PullStatsRequest) (sidecar.PullStatsReply, error) {
	w.qmu.Lock()
	round := w.qround
	queued := w.queueLen + len(w.inbox) + len(w.wireInbox)
	w.qmu.Unlock()
	return sidecar.PullStatsReply{Vitals: sidecar.WorkerVitals{
		WorkerID:         int(w.vitals.id.Load()),
		Shard:            int(w.vitals.shard.Load()),
		Round:            round,
		QueueLen:         queued,
		BDDNodes:         w.vitals.bddNodes.Load(),
		GCPauseP99Micros: w.vitals.gcPauseP99.Load(),
		RSSBytes:         obs.ProcessRSSBytes(),
		HeapBytes:        obs.HeapBytes(),
		Goroutines:       runtime.NumGoroutine(),
		NowUnixMicro:     time.Now().UnixMicro(),
	}}, nil
}

// PullProfile implements sidecar.WorkerAPI: capture one pprof profile for
// the centralized harvest. No phaseMu — profiling a wedged phase is the
// whole point. A cpu capture blocks the caller for the capture window and
// single-flights per process (runtime/pprof allows one active CPU
// profile); in-process fleets therefore profile the whole process, not
// one worker goroutine set.
func (w *Worker) PullProfile(req sidecar.PullProfileRequest) (sidecar.PullProfileReply, error) {
	reply := sidecar.PullProfileReply{WorkerID: int(w.vitals.id.Load()), Kind: req.Kind}
	var buf bytes.Buffer
	switch req.Kind {
	case "cpu":
		secs := req.Seconds
		if secs <= 0 {
			secs = 2
		}
		if secs > 30 {
			secs = 30
		}
		w.profileMu.Lock()
		defer w.profileMu.Unlock()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return reply, fmt.Errorf("core: worker %d cpu profile: %w", reply.WorkerID, err)
		}
		time.Sleep(time.Duration(secs) * time.Second)
		pprof.StopCPUProfile()
	case "heap":
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
			return reply, fmt.Errorf("core: worker %d heap profile: %w", reply.WorkerID, err)
		}
	default:
		return reply, fmt.Errorf("core: unknown profile kind %q (want cpu or heap)", req.Kind)
	}
	w.flight.Record("profile", "%s profile captured: %d bytes", req.Kind, buf.Len())
	reply.Profile = buf.Bytes()
	return reply, nil
}
