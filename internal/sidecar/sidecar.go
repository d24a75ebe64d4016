// Package sidecar is the communication layer of S2 (§3.2, "Sidecars"):
// every worker exposes one RPC endpoint used by the controller (to
// orchestrate phases) and by peer workers. The controller and each worker
// hold a directory of clients, mirroring the paper's per-server sidecar
// processes that route requests by a node→worker map.
//
// Cross-worker traffic has exactly one path per direction, as in the
// paper's sidecar: one route relay (PullBGPBatchWire/PullLSABatchWire — a
// shadow node's pulls, coalesced per owning worker, replies varint-encoded
// by wirecodec.go) and one symbolic-packet relay (DeliverBatch — a shared
// BDD substrate per destination worker with per-peer node dedup). Every
// binary is built from one tree, so the two ends always speak the same
// protocol; Setup checks ProtocolVersion and a mismatch fails the run
// there with a *ProtocolError instead of somewhere in the middle.
//
// The RPC layer is Go's net/rpc with gob encoding — the stdlib equivalent
// of the paper's gRPC + Java serialization choice (§5.1). The same
// WorkerAPI interface is implemented by the in-process worker (direct
// calls, one goroutine pool per worker) and by the RemoteWorker RPC client
// (workers in separate OS processes via cmd/s2worker), so the controller
// code is transport-agnostic.
package sidecar

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s2/internal/bgp"
	"s2/internal/dataplane"
	"s2/internal/obs"
	"s2/internal/ospf"
	"s2/internal/route"
	"s2/internal/topology"
)

// TraceContext is the cross-process span identity carried on every sidecar
// request (see obs.TraceContext): the caller's in-flight span, under which
// the server side parents the spans it creates while serving the call.
// The zero value means "no parent". The alias keeps request structs
// self-describing while obs owns the propagation semantics.
type TraceContext = obs.TraceContext

// CallMeta is the argument of void RPCs so they can carry a TraceContext.
type CallMeta struct {
	TC TraceContext
}

// ErrDraining is returned to RPCs that arrive while the server is shutting
// down gracefully. Callers should treat the worker as gone (the fault layer
// classifies it as transient).
var ErrDraining = errors.New("sidecar: server draining")

// ProtocolVersion names the RPC surface this build speaks. The controller
// stamps it on every SetupRequest and the worker's sidecar refuses a
// request stamped with any other value, so a controller and a worker from
// different builds fail at Setup instead of mid-run. Bump it whenever a
// method, request or reply changes shape.
const ProtocolVersion = 2

// ProtocolError reports a Setup whose controller and worker speak
// different protocol versions. It is fatal: retrying cannot help.
type ProtocolError struct {
	Controller, Worker int
}

// protocolErrPrefix starts every ProtocolError message; RemoteWorker
// recognizes it to rebuild the typed error after net/rpc flattened it.
const protocolErrPrefix = "sidecar: protocol mismatch"

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("%s: controller speaks v%d, worker speaks v%d", protocolErrPrefix, e.Controller, e.Worker)
}

// asProtocolError rebuilds a *ProtocolError from its flattened text.
func asProtocolError(err error) error {
	var se rpc.ServerError
	if !errors.As(err, &se) || !strings.HasPrefix(string(se), protocolErrPrefix) {
		return err
	}
	pe := &ProtocolError{}
	if _, scanErr := fmt.Sscanf(string(se)[len(protocolErrPrefix):], ": controller speaks v%d, worker speaks v%d", &pe.Controller, &pe.Worker); scanErr != nil {
		return err
	}
	return pe
}

// SetupRequest initializes a worker with its segment of the network.
type SetupRequest struct {
	// Protocol is the controller's ProtocolVersion (see ProtocolError).
	Protocol int
	// WorkerID is this worker's index; Assignment maps every node in the
	// network to its worker (shadow-node routing table).
	WorkerID   int
	Assignment map[string]int
	// Configs holds the raw configuration text of each LOCAL device; the
	// worker parses them into switch models.
	Configs map[string]string
	// Adjacencies and Sessions cover local devices (they reference remote
	// neighbors by name).
	Adjacencies map[string][]topology.Adjacency
	Sessions    map[string][]topology.BGPSession
	// MetaBits sizes the BDD layout; MaxBDDNodes bounds the node table
	// (0 = unlimited).
	MetaBits    int
	MaxBDDNodes int
	// MemoryBudget is the modelled per-worker memory budget in bytes
	// (0 = unlimited).
	MemoryBudget int64
	// PeerAddrs lists the RPC address of every worker (by worker index)
	// for worker-to-worker calls; empty strings mean "local" (in-process
	// mode wires peers directly instead).
	PeerAddrs []string
	// SpillDir, when non-empty, enables writing per-shard results to
	// disk between shard rounds (§3.1, "write it to persistent storage").
	SpillDir string
	// KeepRIBs retains full per-node RIBs in memory for CollectRIBs
	// (equivalence testing); disable for large runs.
	KeepRIBs bool
	// RPCTimeout and RPCRetries configure the fault policy the worker
	// applies to its own peer-to-peer calls (route pulls, packet
	// deliveries). Zero values mean no deadline / no retries.
	RPCTimeout time.Duration
	RPCRetries int
	// Parallelism bounds the worker's per-node goroutine pool for the
	// simulation phases (Gather*/Apply*/ComputeDP/DPRound). <= 0 means the
	// worker's own default (the s2worker -procs flag, else 1).
	Parallelism int
	// GCStress forces the worker's BDD GC pacer to collect at every safe
	// point where the table grew at all — a smoke-test knob that maximizes
	// collection count so relocation and pacing bugs surface; results must
	// stay byte-identical. GCWipe reverts the engine to the seed
	// collector's cache behavior (op cache wiped on every collection) as
	// the A/B baseline for GC benchmarks. Both default off.
	GCStress bool
	GCWipe   bool
	// TC parents the worker's setup span under the caller's RPC span.
	TC TraceContext
}

// BeginShardRequest starts a prefix-shard round. An empty prefix list means
// "no filter" (single-shard operation).
type BeginShardRequest struct {
	Index    int
	Prefixes []route.Prefix
	TC       TraceContext
}

// ConditionReport names a prefix-list consulted by conditional
// advertisement on a device during a shard round — the runtime dependency
// signal of §7.
type ConditionReport struct {
	Device     string
	PrefixList string
}

// EndShardReply summarizes a completed shard round.
type EndShardReply struct {
	Routes     int   // routes computed in this shard across local nodes
	ModelBytes int64 // current modelled memory after the shard was spilled
	// Conditions lists the conditional-advertisement prefix-lists local
	// nodes consulted, for runtime dependency detection.
	Conditions []ConditionReport
}

// ApplyReply reports whether any local node changed state this round, plus
// the per-iteration progress the controller streams to its live run view:
// how many local nodes changed and how many routes are settled in local
// RIBs after the round (§5's convergence attribution).
type ApplyReply struct {
	Changed bool
	// ChangedNodes counts local nodes whose state changed this round.
	ChangedNodes int
	// Routes counts routes currently installed across local per-protocol
	// RIBs (BGP Loc-RIBs for ApplyBGP, OSPF route tables for ApplyOSPF).
	Routes int
}

// PullBGPRequest is one shadow node's route pull from the real node; a
// batch carries every pull one worker has for one owner in a gather round.
type PullBGPRequest struct {
	Exporter string
	Puller   string
	Since    uint64
	Seen     bool
	TC       TraceContext
}

// PullBGPReply carries the exported advertisements of one pull.
type PullBGPReply struct {
	Advs    []bgp.Advertisement
	Version uint64
	Fresh   bool
}

// PullLSAsRequest is one shadow node's LSA pull.
type PullLSAsRequest struct {
	Exporter string
	Puller   string
	Since    uint64
	Seen     bool
	TC       TraceContext
}

// PullLSAsReply carries the flooded LSAs of one pull.
type PullLSAsReply struct {
	LSAs    []*ospf.LSA
	Version uint64
	Fresh   bool
}

// PullWireReply carries a batch-pull reply set, one reply per request in
// request order, as one compact varint payload (wirecodec.go) — the
// control-plane analogue of the data plane's shared-substrate wire codec.
type PullWireReply struct {
	Payload []byte
}

// DeltaRequest applies a configuration delta to a worker's resident state:
// re-parse and swap the named LOCAL devices in place (rebuilding their BGP
// processes) and drop routes for prefixes that no longer exist anywhere in
// the network. It deliberately does NOT touch OSPF state — any change that
// could affect OSPF classifies as a topology change and takes the full
// re-Setup path instead.
type DeltaRequest struct {
	// Configs holds the new raw configuration text of changed local
	// devices, keyed by hostname.
	Configs map[string]string
	// PurgePrefixes lists prefixes originated under the previous snapshot
	// but by no device under the new one; every worker removes them from
	// its resident per-node RIBs (results accumulate per prefix, so
	// nothing else would ever overwrite them).
	PurgePrefixes []route.Prefix
	TC            TraceContext
}

// DeltaReply reports what the worker swapped.
type DeltaReply struct {
	// Devices is the number of local device models replaced.
	Devices int
}

// ComputeDPReply summarizes FIB and predicate compilation.
type ComputeDPReply struct {
	FIBEntries int
	BDDNodes   int
	Errors     []string
}

// QueryBatchRequest arms one symbolic pass of one or more queries: every
// query shares the pass's transit metadata bits and TTL
// (dataplane.BatchCompatible). With more than one query, injected packets
// carry dataplane.QueryTag(i) source prefixes so the wavefront keeps
// per-query packets in distinct slots; a one-query pass injects untagged.
type QueryBatchRequest struct {
	Queries []dataplane.Query
	TC      TraceContext
}

// InjectRequest injects a symbolic packet at a source node (owned by the
// receiving worker). The packet is a serialized BDD. Tag, when non-empty,
// is the dataplane.QueryTag prefix of a multi-query pass: ownership is
// validated against Source, and the packet circulates as Tag+Source.
type InjectRequest struct {
	Source string
	Packet []byte
	Tag    string
	TC     TraceContext
}

// WirePacket is one symbolic packet crossing a worker boundary inside a
// DeliverBatch message: it arrives at Node on port InPort (③→④→⑤ in the
// paper's Figure 3), and Root is its id in the batch's shared substrate
// (bdd wire codec).
type WirePacket struct {
	Source string
	Node   string
	InPort string
	Root   uint32
}

// DeliverBatchRequest carries every packet a sender has for one
// destination worker in a round chunk: one shared-substrate BDD message
// (bdd.EncodeDelta against the sender's per-peer WireSession) plus the
// per-packet roots referencing it. From names the sending worker so the
// receiver can keep one wire session per peer. Round is the wavefront
// round the packets must be processed in: a batch can physically arrive
// before the receiver has drained its current round (workers run each
// round concurrently), and processing it early would let a packet cross
// two adjacencies in one TTL tick, so receivers park batches stamped for
// a future round.
type DeliverBatchRequest struct {
	From  int
	Wire  []byte
	Items []WirePacket
	Round int
	TC    TraceContext
}

// DeliverBatchReply closes the epoch/reset handshake: Reset asks the
// sender to bdd.WireSession.Reset and re-send from scratch because the
// receiver no longer holds the session state the message splices onto
// (it was restarted, recovered, or began a new query phase). Nothing was
// consumed when Reset is true.
type DeliverBatchReply struct {
	Reset bool
}

// HasWorkReply reports whether a worker still has queued packets.
type HasWorkReply struct {
	Busy bool
}

// OutcomeBatch is a worker's finalized packets for the current query: Wire
// is a shared-substrate set encoding (bdd.SerializeSet) of every outcome's
// packet, root i belonging to Outcomes[i] (whose Packet field is empty).
type OutcomeBatch struct {
	Wire     []byte
	Outcomes []dataplane.RawOutcome
}

// RIBsReply returns the merged per-node RIB contents.
type RIBsReply struct {
	Routes map[string][]*route.Route
}

// WorkerStats reports a worker's resource accounting.
type WorkerStats struct {
	WorkerID   int
	Nodes      int
	PeakBytes  int64
	NowBytes   int64
	BDDNodes   int
	RoutePulls int64 // cross-worker pulls served (communication metric)
	PacketsIn  int64 // cross-worker packet deliveries received
	// BDD garbage-collection accounting: collection count, cumulative
	// stop-the-world pause, op-cache entries relocated across collections,
	// and pause percentiles over the recent-collection window.
	GCRuns           int64
	GCPauseMicros    int64
	GCCacheRelocated int64
	GCPauseP50Micros int64
	GCPauseP99Micros int64
}

// PullSpansRequest asks a worker to drain its span export queue (bounded
// ring fed by the worker's tracer) so the controller can merge remote
// spans into the single run trace.
type PullSpansRequest struct {
	// Max bounds the spans returned per call (<= 0 lets the worker pick).
	Max int
	// WithFlight additionally snapshots the worker's flight-recorder page
	// — the controller sets it on the best-effort drain during eviction.
	WithFlight bool
	TC         TraceContext
}

// PullSpansReply carries drained spans plus the worker's clock reading,
// which the controller feeds to its per-worker SkewEstimator.
type PullSpansReply struct {
	Spans []obs.SpanData
	// Dropped counts spans lost to export-ring overflow since the last
	// drain; More reports the queue was not emptied by this call.
	Dropped uint64
	More    bool
	// NowUnixMicro is the worker's clock while serving this call.
	NowUnixMicro int64
	// Flight is the worker's recent flight-recorder page when WithFlight.
	Flight []obs.FlightEvent
}

// PullStatsRequest asks a worker for a point-in-time vitals snapshot —
// the fleet health sampler's per-worker probe, riding the heartbeat
// cadence.
type PullStatsRequest struct {
	TC TraceContext
}

// WorkerVitals is one worker's live health snapshot, cheap enough to
// serve at heartbeat cadence without touching phase state.
type WorkerVitals struct {
	WorkerID int
	// Shard and Round are the worker's current shard index and wavefront
	// round — the forward-progress indicators the straggler analytics and
	// dashboard heatmap key on.
	Shard int
	Round int
	// QueueLen counts parked symbolic packets (plus undelivered inbox
	// entries) awaiting the next dataplane round.
	QueueLen int
	// BDDNodes is the engine's live node count after the last compile/GC.
	BDDNodes int64
	// GCPauseP99Micros is the p99 stop-the-world BDD GC pause over the
	// recent-collection window.
	GCPauseP99Micros int64
	// Process vitals: resident set (linux best-effort), Go heap in use,
	// and goroutine count.
	RSSBytes   int64
	HeapBytes  int64
	Goroutines int
	// NowUnixMicro is the worker's clock while serving this call (fed to
	// the controller's per-worker SkewEstimator).
	NowUnixMicro int64
}

// PullStatsReply carries the vitals snapshot.
type PullStatsReply struct {
	Vitals WorkerVitals
}

// PullProfileRequest asks a worker to capture one pprof profile for the
// centralized continuous-profiling harvest.
type PullProfileRequest struct {
	// Kind selects the profile: "cpu" or "heap".
	Kind string
	// Seconds bounds a cpu capture (default 2, clamped to [1, 30]);
	// ignored for heap.
	Seconds int
	TC      TraceContext
}

// PullProfileReply carries the captured profile.
type PullProfileReply struct {
	WorkerID int
	Kind     string
	// Profile is the gzip-framed pprof proto as written by runtime/pprof.
	Profile []byte
}

// WorkerAPI is the Go-level surface of a worker. The in-process
// core.Worker implements it directly; RemoteWorker implements it over RPC.
type WorkerAPI interface {
	// Ping is the liveness probe used by the controller's failure
	// detector. It must be cheap and must not block on worker state.
	Ping() error

	Setup(req SetupRequest) error
	BeginShard(req BeginShardRequest) error
	GatherBGP() error
	ApplyBGP() (ApplyReply, error)
	GatherOSPF() error
	ApplyOSPF() (ApplyReply, error)
	EndShard() (EndShardReply, error)

	// PullBGPBatchWire and PullLSABatchWire are the route relay: they serve
	// every pull one peer has for this worker's nodes in one round trip,
	// replies aligned with reqs by index. Over RPC the reply set crosses
	// the wire varint-encoded (PullWireReply); in-process it is returned
	// as is.
	PullBGPBatchWire(reqs []PullBGPRequest) ([]PullBGPReply, error)
	PullLSABatchWire(reqs []PullLSAsRequest) ([]PullLSAsReply, error)

	// ApplyDelta swaps changed local device models into resident state
	// after a converged run, without a full re-Setup. Not idempotent in
	// principle (it mutates resident RIBs), but safe to retry in practice
	// because the swap is deterministic from the request.
	ApplyDelta(req DeltaRequest) (DeltaReply, error)

	ComputeDP() (ComputeDPReply, error)
	// BeginQueryBatch arms one symbolic pass of one or more queries
	// (per-query dest sets; tagged sources when there are several).
	BeginQueryBatch(req QueryBatchRequest) error
	Inject(req InjectRequest) error
	DPRound() error
	HasWork() (bool, error)
	// DeliverBatch is the symbolic-packet relay: many packets against one
	// shared BDD substrate with per-peer incremental node dedup.
	DeliverBatch(req DeliverBatchRequest) (DeliverBatchReply, error)
	FinishQuery() (OutcomeBatch, error)

	CollectRIBs() (map[string][]*route.Route, error)
	Stats() (WorkerStats, error)
	// PullSpans drains the worker's span export queue. Probe-class like
	// Ping/Stats: it must not block on phase state, and workers without a
	// tracer return an empty reply.
	PullSpans(req PullSpansRequest) (PullSpansReply, error)
	// PullStats returns the worker's live vitals for the fleet health
	// plane. Probe-class like Ping/Stats/PullSpans: it must not block on
	// phase state.
	PullStats(req PullStatsRequest) (PullStatsReply, error)
	// PullProfile captures and returns one pprof profile. Probe-class (no
	// phase lock), though a cpu capture blocks its caller for the capture
	// window — callers bypass short per-RPC deadlines for it.
	PullProfile(req PullProfileRequest) (PullProfileReply, error)
}

// Empty is the placeholder for void RPC arguments/replies.
type Empty struct{}

// RPCHook observes one RPC: it is called with the method name when the
// call begins and returns the completion func that commits the outcome.
// obs.RPCInstrument builds one.
type RPCHook func(method string) (done func(error))

// TraceHook is an RPCHook that also yields the TraceContext of the span it
// opened for the call, so the transport can stamp it onto the outgoing
// request and the server side can parent under this exact attempt (each
// retry through fault.Wrap re-enters the hook, so every attempt gets its
// own span while sharing the stable stage-span parent).
// obs.RPCInstrumentTraced builds one.
type TraceHook func(method string) (TraceContext, func(error))

// TraceParentAcceptor is implemented by workers that can parent the spans
// they open while serving a call under the caller's propagated context.
// Service offers every valid incoming TC to the API through it; the worker
// decides per method whether to adopt it (controller phase calls) or
// ignore it (concurrent peer traffic must not reparent phase spans).
type TraceParentAcceptor interface {
	AcceptTraceParent(method string, tc TraceContext)
}

// Service adapts a WorkerAPI to net/rpc method conventions. It is
// registered under the name "Sidecar". When attached to a Server, every
// RPC passes through the server's drain gate so graceful shutdown can wait
// for in-flight calls, and through the server's RPC hook so the worker's
// telemetry sees every served call.
type Service struct {
	api  WorkerAPI
	gate *Server // optional
}

// NewService wraps a worker (no drain gate, no hook).
func NewService(api WorkerAPI) *Service { return &Service{api: api} }

// do runs one RPC body under the drain gate and RPC hook (if any), after
// offering the caller's propagated TraceContext to the worker.
func (s *Service) do(method string, tc TraceContext, fn func() error) error {
	if tc.Valid() {
		if acc, ok := s.api.(TraceParentAcceptor); ok {
			acc.AcceptTraceParent(method, tc)
		}
	}
	if s.gate == nil {
		return fn()
	}
	if err := s.gate.enter(); err != nil {
		return err
	}
	defer s.gate.exit()
	if hook := s.gate.rpcHook(); hook != nil {
		done := hook(method)
		err := fn()
		done(err)
		return err
	}
	return fn()
}

// Ping RPC (liveness probe). Deliberately carries no TraceContext:
// heartbeats run concurrently with phase calls and must not touch the
// worker's span parenting.
func (s *Service) Ping(_ Empty, _ *Empty) error {
	return s.do("Ping", TraceContext{}, func() error { return s.api.Ping() })
}

// Setup RPC. A request from a controller speaking another protocol
// version is refused before it reaches the worker.
func (s *Service) Setup(req SetupRequest, _ *Empty) error {
	return s.do("Setup", req.TC, func() error {
		if req.Protocol != ProtocolVersion {
			return &ProtocolError{Controller: req.Protocol, Worker: ProtocolVersion}
		}
		return s.api.Setup(req)
	})
}

// BeginShard RPC.
func (s *Service) BeginShard(req BeginShardRequest, _ *Empty) error {
	return s.do("BeginShard", req.TC, func() error { return s.api.BeginShard(req) })
}

// GatherBGP RPC.
func (s *Service) GatherBGP(args CallMeta, _ *Empty) error {
	return s.do("GatherBGP", args.TC, s.api.GatherBGP)
}

// ApplyBGP RPC.
func (s *Service) ApplyBGP(args CallMeta, reply *ApplyReply) error {
	return s.do("ApplyBGP", args.TC, func() error {
		r, err := s.api.ApplyBGP()
		*reply = r
		return err
	})
}

// GatherOSPF RPC.
func (s *Service) GatherOSPF(args CallMeta, _ *Empty) error {
	return s.do("GatherOSPF", args.TC, s.api.GatherOSPF)
}

// ApplyOSPF RPC.
func (s *Service) ApplyOSPF(args CallMeta, reply *ApplyReply) error {
	return s.do("ApplyOSPF", args.TC, func() error {
		r, err := s.api.ApplyOSPF()
		*reply = r
		return err
	})
}

// EndShard RPC.
func (s *Service) EndShard(args CallMeta, reply *EndShardReply) error {
	return s.do("EndShard", args.TC, func() error {
		r, err := s.api.EndShard()
		*reply = r
		return err
	})
}

// PullBGPBatchWire RPC: the reply set crosses the wire as one varint
// payload instead of gob structs.
func (s *Service) PullBGPBatchWire(reqs []PullBGPRequest, reply *PullWireReply) error {
	var tc TraceContext
	if len(reqs) > 0 {
		tc = reqs[0].TC
	}
	return s.do("PullBGPBatchWire", tc, func() error {
		replies, err := s.api.PullBGPBatchWire(reqs)
		if err != nil {
			return err
		}
		reply.Payload = EncodeBGPReplies(replies)
		return nil
	})
}

// PullLSABatchWire RPC.
func (s *Service) PullLSABatchWire(reqs []PullLSAsRequest, reply *PullWireReply) error {
	var tc TraceContext
	if len(reqs) > 0 {
		tc = reqs[0].TC
	}
	return s.do("PullLSABatchWire", tc, func() error {
		replies, err := s.api.PullLSABatchWire(reqs)
		if err != nil {
			return err
		}
		reply.Payload = EncodeLSAReplies(replies)
		return nil
	})
}

// ApplyDelta RPC.
func (s *Service) ApplyDelta(req DeltaRequest, reply *DeltaReply) error {
	return s.do("ApplyDelta", req.TC, func() error {
		r, err := s.api.ApplyDelta(req)
		*reply = r
		return err
	})
}

// ComputeDP RPC.
func (s *Service) ComputeDP(args CallMeta, reply *ComputeDPReply) error {
	return s.do("ComputeDP", args.TC, func() error {
		r, err := s.api.ComputeDP()
		*reply = r
		return err
	})
}

// BeginQueryBatch RPC.
func (s *Service) BeginQueryBatch(req QueryBatchRequest, _ *Empty) error {
	return s.do("BeginQueryBatch", req.TC, func() error { return s.api.BeginQueryBatch(req) })
}

// Inject RPC.
func (s *Service) Inject(req InjectRequest, _ *Empty) error {
	return s.do("Inject", req.TC, func() error { return s.api.Inject(req) })
}

// DPRound RPC.
func (s *Service) DPRound(args CallMeta, _ *Empty) error {
	return s.do("DPRound", args.TC, s.api.DPRound)
}

// HasWork RPC.
func (s *Service) HasWork(args CallMeta, reply *HasWorkReply) error {
	return s.do("HasWork", args.TC, func() error {
		busy, err := s.api.HasWork()
		reply.Busy = busy
		return err
	})
}

// DeliverBatch RPC.
func (s *Service) DeliverBatch(req DeliverBatchRequest, reply *DeliverBatchReply) error {
	return s.do("DeliverBatch", req.TC, func() error {
		r, err := s.api.DeliverBatch(req)
		*reply = r
		return err
	})
}

// FinishQuery RPC.
func (s *Service) FinishQuery(args CallMeta, reply *OutcomeBatch) error {
	return s.do("FinishQuery", args.TC, func() error {
		batch, err := s.api.FinishQuery()
		*reply = batch
		return err
	})
}

// CollectRIBs RPC.
func (s *Service) CollectRIBs(args CallMeta, reply *RIBsReply) error {
	return s.do("CollectRIBs", args.TC, func() error {
		routes, err := s.api.CollectRIBs()
		reply.Routes = routes
		return err
	})
}

// Stats RPC.
func (s *Service) Stats(args CallMeta, reply *WorkerStats) error {
	return s.do("Stats", args.TC, func() error {
		st, err := s.api.Stats()
		*reply = st
		return err
	})
}

// PullSpans RPC.
func (s *Service) PullSpans(req PullSpansRequest, reply *PullSpansReply) error {
	return s.do("PullSpans", req.TC, func() error {
		r, err := s.api.PullSpans(req)
		*reply = r
		return err
	})
}

// PullStats RPC.
func (s *Service) PullStats(req PullStatsRequest, reply *PullStatsReply) error {
	return s.do("PullStats", req.TC, func() error {
		r, err := s.api.PullStats(req)
		*reply = r
		return err
	})
}

// PullProfile RPC.
func (s *Service) PullProfile(req PullProfileRequest, reply *PullProfileReply) error {
	return s.do("PullProfile", req.TC, func() error {
		r, err := s.api.PullProfile(req)
		*reply = r
		return err
	})
}

// Server accepts sidecar connections for one worker and supports graceful
// shutdown: Shutdown(grace) stops accepting, waits up to grace for
// in-flight RPCs to drain, then closes every connection. Shutdown(0) is an
// abrupt close — tests use it to simulate a crash.
type Server struct {
	api WorkerAPI

	hook    atomic.Value // RPCHook, set via SetRPCHook
	in, out atomic.Int64 // transport bytes across all connections

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	inflight int
	draining bool
	idle     chan struct{}
}

// NewServer builds a server for one worker.
func NewServer(api WorkerAPI) *Server {
	return &Server{api: api, conns: make(map[net.Conn]struct{})}
}

// SetRPCHook installs the observer every served RPC passes through. Safe to
// call while serving; nil clears it.
func (s *Server) SetRPCHook(h RPCHook) { s.hook.Store(h) }

func (s *Server) rpcHook() RPCHook {
	h, _ := s.hook.Load().(RPCHook)
	return h
}

// BytesRead reports transport bytes received across all connections.
func (s *Server) BytesRead() int64 { return s.in.Load() }

// BytesWritten reports transport bytes sent across all connections.
func (s *Server) BytesWritten() int64 { return s.out.Load() }

// countingConn tallies transport bytes into shared counters. It backs the
// s2_rpc_bytes_total metric — net/rpc+gob gives no per-message sizes, so
// byte accounting happens at the connection layer.
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// Serve accepts connections on lis until the listener closes. Returns nil
// when the close came from Shutdown, the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return nil
	}
	s.lis = lis
	s.mu.Unlock()

	srv := rpc.NewServer()
	if err := srv.RegisterName("Sidecar", &Service{api: s.api, gate: s}); err != nil {
		return err
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			srv.ServeConn(countingConn{Conn: conn, in: &s.in, out: &s.out})
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// enter admits one RPC, or rejects it if the server is draining.
func (s *Server) enter() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	s.inflight++
	return nil
}

func (s *Server) exit() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// Shutdown stops accepting connections and rejects new RPCs. With grace > 0
// it waits up to grace for in-flight RPCs to complete (plus a short settle
// so their replies flush) before closing connections; with grace 0 it
// severs everything immediately, like a crash. Idempotent.
func (s *Server) Shutdown(grace time.Duration) {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	lis := s.lis
	var idle chan struct{}
	if !already && grace > 0 && s.inflight > 0 {
		idle = make(chan struct{})
		s.idle = idle
	}
	s.mu.Unlock()

	if lis != nil {
		lis.Close()
	}
	if idle != nil {
		select {
		case <-idle:
			// In-flight handlers returned; their replies are written by the
			// rpc server just after, so give them a moment to flush.
			time.Sleep(20 * time.Millisecond)
		case <-time.After(grace):
		}
	}

	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Serve registers the service on a fresh RPC server and accepts
// connections until the listener closes. It is the body of a sidecar
// process; equivalent to NewServer(api).Serve(lis) when graceful shutdown
// is not needed.
func Serve(api WorkerAPI, lis net.Listener) error {
	return NewServer(api).Serve(lis)
}

// CallWrapper decorates every RPC a RemoteWorker issues: it receives the
// method name, whether the call is idempotent (safe to retry), and the call
// itself. fault.Caller.Wrap produces one that adds deadlines and retries;
// this indirection keeps sidecar free of a dependency on the fault package.
type CallWrapper func(method string, idempotent bool, call func() error) error

// RemoteWorker is the client side: a WorkerAPI that relays every call over
// RPC, optionally through a CallWrapper.
type RemoteWorker struct {
	addr    string
	c       *rpc.Client
	wrap    CallWrapper
	in, out atomic.Int64

	// nextTC is a one-shot trace parent consumed by the next non-Ping
	// call; ObserveTraced stamps it per attempt. tcSource is a read-only
	// fallback sampler (a worker's current phase span) used when no
	// one-shot parent is pending — safe under concurrent callers, which is
	// why peer-facing paths use it instead of the take-once slot.
	nextTC   atomic.Pointer[TraceContext]
	tcSource atomic.Value // func() TraceContext
}

// SetNextTraceParent arms the one-shot trace parent for the next call
// issued on this client (stamped onto the request's TC field).
func (r *RemoteWorker) SetNextTraceParent(tc TraceContext) {
	r.nextTC.Store(&tc)
}

// SetTraceSource installs a sampler consulted when no one-shot parent is
// armed — workers point their dialed peers at the current phase span so
// peer pulls and deliveries carry a live context.
func (r *RemoteWorker) SetTraceSource(fn func() TraceContext) {
	r.tcSource.Store(fn)
}

// takeTC resolves the TraceContext to stamp on an outgoing request.
func (r *RemoteWorker) takeTC() TraceContext {
	if p := r.nextTC.Swap(nil); p != nil {
		return *p
	}
	if fn, _ := r.tcSource.Load().(func() TraceContext); fn != nil {
		return fn()
	}
	return TraceContext{}
}

// BytesRead reports transport bytes received on this client connection.
func (r *RemoteWorker) BytesRead() int64 { return r.in.Load() }

// BytesWritten reports transport bytes sent on this client connection.
func (r *RemoteWorker) BytesWritten() int64 { return r.out.Load() }

// Dial connects to a worker's sidecar with no deadline or retries.
func Dial(addr string) (*RemoteWorker, error) {
	return DialWrapped(addr, 0, nil)
}

// DialWrapped connects with a bound on the TCP dial (0 = none) and routes
// every subsequent call through wrap (nil = direct).
func DialWrapped(addr string, dialTimeout time.Duration, wrap CallWrapper) (*RemoteWorker, error) {
	var conn net.Conn
	var err error
	if dialTimeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, dialTimeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("sidecar: dialing %s: %w", addr, err)
	}
	r := &RemoteWorker{addr: addr, wrap: wrap}
	r.c = rpc.NewClient(countingConn{Conn: conn, in: &r.in, out: &r.out})
	return r, nil
}

// Addr returns the remote address.
func (r *RemoteWorker) Addr() string { return r.addr }

// Close tears down the connection. In-flight calls return rpc.ErrShutdown,
// which is how the controller's failure detector unblocks calls hung on a
// dead worker.
func (r *RemoteWorker) Close() error { return r.c.Close() }

// rcall issues one RPC through the wrapper. A fresh reply is allocated per
// attempt: gob decodes into whatever the reply already holds, so reusing a
// partially-filled reply across retries could merge stale state.
func rcall[R any](r *RemoteWorker, method string, idempotent bool, args any) (R, error) {
	var reply R
	call := func() error {
		var fresh R
		if err := r.c.Call("Sidecar."+method, args, &fresh); err != nil {
			return err
		}
		reply = fresh
		return nil
	}
	if r.wrap == nil {
		return reply, call()
	}
	return reply, r.wrap(method, idempotent, call)
}

// Idempotency of each RPC, which gates retries. Phase mutations (Gather*/
// Apply*/EndShard/Inject/DPRound/DeliverBatch/FinishQuery) are NOT safe
// to retry — a timed-out attempt may still have executed remotely, and
// running one twice breaks the round barrier; recovery for those is
// re-execution from a clean re-Setup. Setup/BeginShard/BeginQueryBatch
// fully reset the state they establish, and the rest are reads —
// including the batch pulls: serving a pull never mutates exporter state,
// so a duplicate delivery of a timed-out pull is harmless.

// Ping implements WorkerAPI.
func (r *RemoteWorker) Ping() error {
	_, err := rcall[Empty](r, "Ping", true, Empty{})
	return err
}

// Setup implements WorkerAPI. A protocol mismatch comes back as a typed
// *ProtocolError; it is not transient, so the fault layer never retries it.
func (r *RemoteWorker) Setup(req SetupRequest) error {
	req.TC = r.takeTC()
	_, err := rcall[Empty](r, "Setup", true, req)
	return asProtocolError(err)
}

// BeginShard implements WorkerAPI.
func (r *RemoteWorker) BeginShard(req BeginShardRequest) error {
	req.TC = r.takeTC()
	_, err := rcall[Empty](r, "BeginShard", true, req)
	return err
}

// GatherBGP implements WorkerAPI.
func (r *RemoteWorker) GatherBGP() error {
	_, err := rcall[Empty](r, "GatherBGP", false, CallMeta{TC: r.takeTC()})
	return err
}

// ApplyBGP implements WorkerAPI.
func (r *RemoteWorker) ApplyBGP() (ApplyReply, error) {
	return rcall[ApplyReply](r, "ApplyBGP", false, CallMeta{TC: r.takeTC()})
}

// GatherOSPF implements WorkerAPI.
func (r *RemoteWorker) GatherOSPF() error {
	_, err := rcall[Empty](r, "GatherOSPF", false, CallMeta{TC: r.takeTC()})
	return err
}

// ApplyOSPF implements WorkerAPI.
func (r *RemoteWorker) ApplyOSPF() (ApplyReply, error) {
	return rcall[ApplyReply](r, "ApplyOSPF", false, CallMeta{TC: r.takeTC()})
}

// EndShard implements WorkerAPI.
func (r *RemoteWorker) EndShard() (EndShardReply, error) {
	return rcall[EndShardReply](r, "EndShard", false, CallMeta{TC: r.takeTC()})
}

// PullBGPBatchWire implements WorkerAPI: the reply set arrives as one
// varint payload and is decoded client-side. The trace context rides on
// the first request of the batch.
func (r *RemoteWorker) PullBGPBatchWire(reqs []PullBGPRequest) ([]PullBGPReply, error) {
	if len(reqs) > 0 {
		reqs[0].TC = r.takeTC()
	}
	reply, err := rcall[PullWireReply](r, "PullBGPBatchWire", true, reqs)
	if err != nil {
		return nil, err
	}
	return DecodeBGPReplies(reply.Payload)
}

// PullLSABatchWire implements WorkerAPI.
func (r *RemoteWorker) PullLSABatchWire(reqs []PullLSAsRequest) ([]PullLSAsReply, error) {
	if len(reqs) > 0 {
		reqs[0].TC = r.takeTC()
	}
	reply, err := rcall[PullWireReply](r, "PullLSABatchWire", true, reqs)
	if err != nil {
		return nil, err
	}
	return DecodeLSAReplies(reply.Payload)
}

// ApplyDelta implements WorkerAPI. Retry-safe: the swap is deterministic
// from the request and purges are idempotent.
func (r *RemoteWorker) ApplyDelta(req DeltaRequest) (DeltaReply, error) {
	req.TC = r.takeTC()
	return rcall[DeltaReply](r, "ApplyDelta", true, req)
}

// ComputeDP implements WorkerAPI.
func (r *RemoteWorker) ComputeDP() (ComputeDPReply, error) {
	return rcall[ComputeDPReply](r, "ComputeDP", true, CallMeta{TC: r.takeTC()})
}

// BeginQueryBatch implements WorkerAPI.
func (r *RemoteWorker) BeginQueryBatch(req QueryBatchRequest) error {
	req.TC = r.takeTC()
	_, err := rcall[Empty](r, "BeginQueryBatch", true, req)
	return err
}

// Inject implements WorkerAPI.
func (r *RemoteWorker) Inject(req InjectRequest) error {
	req.TC = r.takeTC()
	_, err := rcall[Empty](r, "Inject", false, req)
	return err
}

// DPRound implements WorkerAPI.
func (r *RemoteWorker) DPRound() error {
	_, err := rcall[Empty](r, "DPRound", false, CallMeta{TC: r.takeTC()})
	return err
}

// HasWork implements WorkerAPI.
func (r *RemoteWorker) HasWork() (bool, error) {
	reply, err := rcall[HasWorkReply](r, "HasWork", true, CallMeta{TC: r.takeTC()})
	return reply.Busy, err
}

// DeliverBatch implements WorkerAPI. Not idempotent: a retried delivery
// would double-apply the substrate splice and the packet merges.
func (r *RemoteWorker) DeliverBatch(req DeliverBatchRequest) (DeliverBatchReply, error) {
	req.TC = r.takeTC()
	return rcall[DeliverBatchReply](r, "DeliverBatch", false, req)
}

// FinishQuery implements WorkerAPI.
func (r *RemoteWorker) FinishQuery() (OutcomeBatch, error) {
	return rcall[OutcomeBatch](r, "FinishQuery", false, CallMeta{TC: r.takeTC()})
}

// CollectRIBs implements WorkerAPI.
func (r *RemoteWorker) CollectRIBs() (map[string][]*route.Route, error) {
	reply, err := rcall[RIBsReply](r, "CollectRIBs", true, CallMeta{TC: r.takeTC()})
	return reply.Routes, err
}

// Stats implements WorkerAPI.
func (r *RemoteWorker) Stats() (WorkerStats, error) {
	return rcall[WorkerStats](r, "Stats", true, CallMeta{TC: r.takeTC()})
}

// PullSpans implements WorkerAPI. Idempotent in the retry sense — a lost
// reply loses at most one drain batch of telemetry, never application
// state — and, like Ping, safe against a wedged worker (no phase lock).
func (r *RemoteWorker) PullSpans(req PullSpansRequest) (PullSpansReply, error) {
	return rcall[PullSpansReply](r, "PullSpans", true, req)
}

// PullStats implements WorkerAPI. Idempotent: a pure point-in-time read.
func (r *RemoteWorker) PullStats(req PullStatsRequest) (PullStatsReply, error) {
	return rcall[PullStatsReply](r, "PullStats", true, req)
}

// PullProfile implements WorkerAPI. Idempotent in the retry sense — a
// retried capture just captures again.
func (r *RemoteWorker) PullProfile(req PullProfileRequest) (PullProfileReply, error) {
	return rcall[PullProfileReply](r, "PullProfile", true, req)
}

// PhaseClass reports whether a method is a controller-phase call: issued
// by the controller, serialized per worker, and the trigger for the
// worker-side phase span. Only these propagate a one-shot trace parent —
// probes (Ping/HasWork/Stats/PullSpans) run concurrently with phases and
// must not disturb span parenting, and peer-facing traffic parents via the
// read-only trace source instead.
func PhaseClass(method string) bool {
	switch method {
	case "Setup", "BeginShard", "GatherBGP", "ApplyBGP", "GatherOSPF",
		"ApplyOSPF", "EndShard", "ComputeDP", "BeginQueryBatch",
		"Inject", "DPRound", "FinishQuery", "ApplyDelta":
		return true
	}
	return false
}

// Observe wraps api so every call flows through hook (mirrors fault.Wrap).
// The controller uses it to attach RPC telemetry to in-process workers and
// remote clients alike; a nil hook returns api unchanged.
func Observe(api WorkerAPI, hook RPCHook) WorkerAPI {
	if hook == nil {
		return api
	}
	return &observed{api: api, hook: hook}
}

// ObserveTraced is Observe with cross-process propagation: when api (the
// layer below, normally the RemoteWorker transport) can carry a trace
// parent, every phase-class call arms it with the context of the rpc span
// the hook just opened, so the server-side span parents under this exact
// call. fault.Wrap sits outside this wrapper, so each retry re-enters the
// hook and re-arms with its own fresh attempt span.
func ObserveTraced(api WorkerAPI, hook TraceHook) WorkerAPI {
	if hook == nil {
		return api
	}
	carrier, _ := api.(traceCarrier)
	return &observed{api: api, thook: hook, carrier: carrier}
}

// traceCarrier is the transport-side slot ObserveTraced arms (RemoteWorker
// implements it for the wire; core.Worker implements it directly so the
// in-process transport yields the same parenting).
type traceCarrier interface {
	SetNextTraceParent(tc TraceContext)
}

type observed struct {
	api     WorkerAPI
	hook    RPCHook
	thook   TraceHook
	carrier traceCarrier
}

// obs runs one call through the hook.
func (o *observed) obs(method string, call func() error) error {
	if o.thook != nil {
		tc, done := o.thook(method)
		if tc.Valid() && o.carrier != nil && PhaseClass(method) {
			o.carrier.SetNextTraceParent(tc)
		}
		err := call()
		done(err)
		return err
	}
	done := o.hook(method)
	err := call()
	done(err)
	return err
}

func (o *observed) Ping() error {
	return o.obs("Ping", o.api.Ping)
}

func (o *observed) Setup(req SetupRequest) error {
	return o.obs("Setup", func() error { return o.api.Setup(req) })
}

func (o *observed) BeginShard(req BeginShardRequest) error {
	return o.obs("BeginShard", func() error { return o.api.BeginShard(req) })
}

func (o *observed) GatherBGP() error {
	return o.obs("GatherBGP", o.api.GatherBGP)
}

func (o *observed) ApplyBGP() (ApplyReply, error) {
	var reply ApplyReply
	err := o.obs("ApplyBGP", func() error {
		var err error
		reply, err = o.api.ApplyBGP()
		return err
	})
	return reply, err
}

func (o *observed) GatherOSPF() error {
	return o.obs("GatherOSPF", o.api.GatherOSPF)
}

func (o *observed) ApplyOSPF() (ApplyReply, error) {
	var reply ApplyReply
	err := o.obs("ApplyOSPF", func() error {
		var err error
		reply, err = o.api.ApplyOSPF()
		return err
	})
	return reply, err
}

func (o *observed) EndShard() (EndShardReply, error) {
	var reply EndShardReply
	err := o.obs("EndShard", func() error {
		var err error
		reply, err = o.api.EndShard()
		return err
	})
	return reply, err
}

func (o *observed) PullBGPBatchWire(reqs []PullBGPRequest) ([]PullBGPReply, error) {
	var replies []PullBGPReply
	err := o.obs("PullBGPBatchWire", func() error {
		var err error
		replies, err = o.api.PullBGPBatchWire(reqs)
		return err
	})
	return replies, err
}

func (o *observed) PullLSABatchWire(reqs []PullLSAsRequest) ([]PullLSAsReply, error) {
	var replies []PullLSAsReply
	err := o.obs("PullLSABatchWire", func() error {
		var err error
		replies, err = o.api.PullLSABatchWire(reqs)
		return err
	})
	return replies, err
}

func (o *observed) ApplyDelta(req DeltaRequest) (DeltaReply, error) {
	var reply DeltaReply
	err := o.obs("ApplyDelta", func() error {
		var err error
		reply, err = o.api.ApplyDelta(req)
		return err
	})
	return reply, err
}

func (o *observed) ComputeDP() (ComputeDPReply, error) {
	var reply ComputeDPReply
	err := o.obs("ComputeDP", func() error {
		var err error
		reply, err = o.api.ComputeDP()
		return err
	})
	return reply, err
}

func (o *observed) BeginQueryBatch(req QueryBatchRequest) error {
	return o.obs("BeginQueryBatch", func() error { return o.api.BeginQueryBatch(req) })
}

func (o *observed) Inject(req InjectRequest) error {
	return o.obs("Inject", func() error { return o.api.Inject(req) })
}

func (o *observed) DPRound() error {
	return o.obs("DPRound", o.api.DPRound)
}

func (o *observed) HasWork() (bool, error) {
	var busy bool
	err := o.obs("HasWork", func() error {
		var err error
		busy, err = o.api.HasWork()
		return err
	})
	return busy, err
}

func (o *observed) DeliverBatch(req DeliverBatchRequest) (DeliverBatchReply, error) {
	var reply DeliverBatchReply
	err := o.obs("DeliverBatch", func() error {
		var err error
		reply, err = o.api.DeliverBatch(req)
		return err
	})
	return reply, err
}

func (o *observed) FinishQuery() (OutcomeBatch, error) {
	var out OutcomeBatch
	err := o.obs("FinishQuery", func() error {
		var err error
		out, err = o.api.FinishQuery()
		return err
	})
	return out, err
}

func (o *observed) CollectRIBs() (map[string][]*route.Route, error) {
	var routes map[string][]*route.Route
	err := o.obs("CollectRIBs", func() error {
		var err error
		routes, err = o.api.CollectRIBs()
		return err
	})
	return routes, err
}

func (o *observed) Stats() (WorkerStats, error) {
	var st WorkerStats
	err := o.obs("Stats", func() error {
		var err error
		st, err = o.api.Stats()
		return err
	})
	return st, err
}

// PullSpans deliberately bypasses the hook: instrumenting the telemetry
// drain itself would mint a new rpc span per harvest, which the harvest
// then ships — an infinite feedback loop of self-describing spans.
func (o *observed) PullSpans(req PullSpansRequest) (PullSpansReply, error) {
	return o.api.PullSpans(req)
}

// PullStats and PullProfile bypass the hook for the same reason as
// PullSpans: the fleet health plane observing itself would pollute the
// very telemetry it collects.
func (o *observed) PullStats(req PullStatsRequest) (PullStatsReply, error) {
	return o.api.PullStats(req)
}

func (o *observed) PullProfile(req PullProfileRequest) (PullProfileReply, error) {
	return o.api.PullProfile(req)
}
