package sidecar

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"s2/internal/bgp"
	"s2/internal/dataplane"
	"s2/internal/ospf"
	"s2/internal/route"
)

// stubWorker implements WorkerAPI with canned responses so the RPC plumbing
// can be tested without internal/core (which would be an import cycle in
// spirit: core depends on sidecar).
type stubWorker struct {
	setups   int
	pings    int
	injected []InjectRequest
	batch    DeliverBatchRequest
	failPull bool
	slow     chan struct{} // when set, phase methods block until closed
}

func (s *stubWorker) Ping() error {
	s.pings++
	return nil
}

func (s *stubWorker) Setup(req SetupRequest) error {
	s.setups++
	if req.WorkerID < 0 {
		return errors.New("bad id")
	}
	return nil
}
func (s *stubWorker) BeginShard(BeginShardRequest) error { return nil }
func (s *stubWorker) GatherBGP() error {
	if s.slow != nil {
		<-s.slow
	}
	return nil
}
func (s *stubWorker) ApplyBGP() (ApplyReply, error) {
	return ApplyReply{Changed: true, ChangedNodes: 2, Routes: 17}, nil
}
func (s *stubWorker) GatherOSPF() error              { return nil }
func (s *stubWorker) ApplyOSPF() (ApplyReply, error) { return ApplyReply{}, nil }
func (s *stubWorker) EndShard() (EndShardReply, error) {
	return EndShardReply{Routes: 42, ModelBytes: 1000}, nil
}

func (s *stubWorker) PullBGPBatchWire(reqs []PullBGPRequest) ([]PullBGPReply, error) {
	replies := make([]PullBGPReply, len(reqs))
	for i, q := range reqs {
		if s.failPull {
			return nil, fmt.Errorf("no node %s", q.Exporter)
		}
		r := &route.Route{Prefix: route.MustParsePrefix("10.0.0.0/24"), Protocol: route.BGP,
			ASPath: []uint32{65001}, LocalPref: 100}
		replies[i] = PullBGPReply{Advs: []bgp.Advertisement{{Route: r}}, Version: 9, Fresh: true}
	}
	return replies, nil
}

func (s *stubWorker) PullLSABatchWire(reqs []PullLSAsRequest) ([]PullLSAsReply, error) {
	replies := make([]PullLSAsReply, len(reqs))
	for i, q := range reqs {
		lsas := []*ospf.LSA{{Router: q.Exporter, Stubs: []ospf.LSAStub{{Prefix: route.MustParsePrefix("10.0.0.0/31"), Cost: 1}}}}
		replies[i] = PullLSAsReply{LSAs: lsas, Version: 4, Fresh: true}
	}
	return replies, nil
}

func (s *stubWorker) ApplyDelta(req DeltaRequest) (DeltaReply, error) {
	return DeltaReply{Devices: len(req.Configs)}, nil
}

func (s *stubWorker) ComputeDP() (ComputeDPReply, error) {
	return ComputeDPReply{FIBEntries: 7, BDDNodes: 100}, nil
}
func (s *stubWorker) BeginQueryBatch(QueryBatchRequest) error { return nil }
func (s *stubWorker) Inject(req InjectRequest) error {
	s.injected = append(s.injected, req)
	return nil
}
func (s *stubWorker) DPRound() error { return nil }
func (s *stubWorker) HasWork() (bool, error) {
	return len(s.injected) > 0, nil
}
func (s *stubWorker) DeliverBatch(req DeliverBatchRequest) (DeliverBatchReply, error) {
	s.batch = req
	return DeliverBatchReply{Reset: true}, nil
}
func (s *stubWorker) FinishQuery() (OutcomeBatch, error) {
	return OutcomeBatch{Outcomes: []dataplane.RawOutcome{{Source: "a", Node: "b", State: dataplane.Arrive, Packet: []byte{1}}}}, nil
}

func (s *stubWorker) CollectRIBs() (map[string][]*route.Route, error) {
	return map[string][]*route.Route{"r1": {{Prefix: route.MustParsePrefix("10.0.0.0/24")}}}, nil
}
func (s *stubWorker) Stats() (WorkerStats, error) {
	return WorkerStats{WorkerID: 3, Nodes: 5, PeakBytes: 2048}, nil
}
func (s *stubWorker) PullSpans(PullSpansRequest) (PullSpansReply, error) {
	return PullSpansReply{}, nil
}
func (s *stubWorker) PullStats(PullStatsRequest) (PullStatsReply, error) {
	return PullStatsReply{Vitals: WorkerVitals{WorkerID: 3, Shard: 2, Round: 7, BDDNodes: 100, NowUnixMicro: time.Now().UnixMicro()}}, nil
}
func (s *stubWorker) PullProfile(req PullProfileRequest) (PullProfileReply, error) {
	if req.Kind != "cpu" && req.Kind != "heap" {
		return PullProfileReply{}, fmt.Errorf("unknown kind %q", req.Kind)
	}
	return PullProfileReply{WorkerID: 3, Kind: req.Kind, Profile: []byte{0x1f, 0x8b}}, nil
}

func dialStub(t *testing.T) (*RemoteWorker, *stubWorker) {
	t.Helper()
	stub := &stubWorker{}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go Serve(stub, lis)
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, stub
}

func TestRPCRoundTripAllMethods(t *testing.T) {
	client, stub := dialStub(t)
	if client.Addr() == "" {
		t.Error("Addr")
	}

	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := client.Setup(SetupRequest{Protocol: ProtocolVersion, WorkerID: 1}); err != nil {
		t.Fatal(err)
	}
	if stub.setups != 1 {
		t.Fatal("setup not delivered")
	}
	// Errors cross the wire.
	if err := client.Setup(SetupRequest{Protocol: ProtocolVersion, WorkerID: -1}); err == nil {
		t.Fatal("remote error must propagate")
	}

	if err := client.BeginShard(BeginShardRequest{Index: 2}); err != nil {
		t.Fatal(err)
	}
	if err := client.GatherBGP(); err != nil {
		t.Fatal(err)
	}
	bgpReply, err := client.ApplyBGP()
	if err != nil || !bgpReply.Changed || bgpReply.ChangedNodes != 2 || bgpReply.Routes != 17 {
		t.Fatalf("ApplyBGP reply: %+v %v", bgpReply, err)
	}
	if err := client.GatherOSPF(); err != nil {
		t.Fatal(err)
	}
	ospfReply, err := client.ApplyOSPF()
	if err != nil || ospfReply.Changed {
		t.Fatalf("ApplyOSPF reply: %+v %v", ospfReply, err)
	}
	end, err := client.EndShard()
	if err != nil || end.Routes != 42 || end.ModelBytes != 1000 {
		t.Fatalf("EndShard reply: %+v %v", end, err)
	}

	// Batched pulls: one round trip, replies aligned with the requests.
	bgpBatch, err := client.PullBGPBatchWire([]PullBGPRequest{
		{Exporter: "r9", Puller: "r1"}, {Exporter: "r8", Puller: "r2", Since: 3, Seen: true},
	})
	if err != nil || len(bgpBatch) != 2 || bgpBatch[0].Version != 9 || !bgpBatch[1].Fresh || len(bgpBatch[0].Advs) != 1 {
		t.Fatalf("PullBGPBatchWire: %+v %v", bgpBatch, err)
	}
	// Route attributes survive the varint codec.
	if r := bgpBatch[0].Advs[0].Route; r.ASPath[0] != 65001 || r.Prefix.String() != "10.0.0.0/24" {
		t.Fatalf("route mangled: %+v", r)
	}
	stub.failPull = true
	if _, err := client.PullBGPBatchWire([]PullBGPRequest{{Exporter: "ghost", Puller: "r1"}}); err == nil {
		t.Fatal("pull error must propagate")
	}
	stub.failPull = false
	lsaBatch, err := client.PullLSABatchWire([]PullLSAsRequest{{Exporter: "r7", Puller: "r1"}})
	if err != nil || len(lsaBatch) != 1 || lsaBatch[0].Version != 4 || lsaBatch[0].LSAs[0].Router != "r7" || len(lsaBatch[0].LSAs[0].Stubs) != 1 {
		t.Fatalf("PullLSABatchWire: %+v %v", lsaBatch, err)
	}

	dp, err := client.ComputeDP()
	if err != nil || dp.FIBEntries != 7 || dp.BDDNodes != 100 {
		t.Fatalf("ComputeDP: %+v %v", dp, err)
	}
	if err := client.BeginQueryBatch(QueryBatchRequest{Queries: []dataplane.Query{{MaxHops: 5}}}); err != nil {
		t.Fatal(err)
	}
	if err := client.Inject(InjectRequest{Source: "r1", Packet: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := client.DPRound(); err != nil {
		t.Fatal(err)
	}
	busy, err := client.HasWork()
	if err != nil || !busy {
		t.Fatal("HasWork after inject")
	}
	if len(stub.injected) != 1 || stub.injected[0].Source != "r1" {
		t.Fatalf("injections = %+v", stub.injected)
	}
	breply, err := client.DeliverBatch(DeliverBatchRequest{From: 1, Wire: []byte{9}, Items: []WirePacket{{Source: "a", Node: "b", Root: 2}}})
	if err != nil || !breply.Reset {
		t.Fatalf("DeliverBatch: %+v %v", breply, err)
	}
	if stub.batch.From != 1 || len(stub.batch.Items) != 1 || stub.batch.Items[0].Root != 2 {
		t.Fatalf("DeliverBatch payload: %+v", stub.batch)
	}
	batch, err := client.FinishQuery()
	if err != nil || len(batch.Outcomes) != 1 || batch.Outcomes[0].State != dataplane.Arrive {
		t.Fatalf("FinishQuery: %v %v", batch, err)
	}

	ribs, err := client.CollectRIBs()
	if err != nil || len(ribs["r1"]) != 1 {
		t.Fatalf("CollectRIBs: %v %v", ribs, err)
	}
	st, err := client.Stats()
	if err != nil || st.WorkerID != 3 || st.PeakBytes != 2048 {
		t.Fatalf("Stats: %+v %v", st, err)
	}

	vit, err := client.PullStats(PullStatsRequest{})
	if err != nil || vit.Vitals.WorkerID != 3 || vit.Vitals.Shard != 2 ||
		vit.Vitals.Round != 7 || vit.Vitals.BDDNodes != 100 || vit.Vitals.NowUnixMicro == 0 {
		t.Fatalf("PullStats: %+v %v", vit, err)
	}
	prof, err := client.PullProfile(PullProfileRequest{Kind: "heap"})
	if err != nil || prof.WorkerID != 3 || prof.Kind != "heap" || len(prof.Profile) != 2 {
		t.Fatalf("PullProfile: %+v %v", prof, err)
	}
	if _, err := client.PullProfile(PullProfileRequest{Kind: "bogus"}); err == nil {
		t.Fatal("PullProfile error must propagate")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

// timeoutWrap is a minimal CallWrapper bounding each call, standing in for
// fault.Caller (which sidecar cannot import without a cycle).
func timeoutWrap(d time.Duration) CallWrapper {
	return func(method string, idempotent bool, call func() error) error {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			return err
		case <-time.After(d):
			return fmt.Errorf("%s deadline exceeded", method)
		}
	}
}

// TestDeadlineOnHungServer: a server that accepts but never answers must
// not hang a wrapped client.
func TestDeadlineOnHungServer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, answer nothing
		}
	}()
	client, err := DialWrapped(lis.Addr().String(), time.Second, timeoutWrap(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	start := time.Now()
	if err := client.Ping(); err == nil {
		t.Fatal("Ping against a hung server must fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the call: took %v", elapsed)
	}
}

// TestServerGracefulDrain: Shutdown with a grace period rejects new RPCs
// but lets the in-flight one finish successfully.
func TestServerGracefulDrain(t *testing.T) {
	stub := &stubWorker{slow: make(chan struct{})}
	srv := NewServer(stub)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	inflight := make(chan error, 1)
	go func() { inflight <- client.GatherBGP() }() // blocks on stub.slow
	time.Sleep(50 * time.Millisecond)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Shutdown(5 * time.Second)
	}()
	time.Sleep(50 * time.Millisecond)

	// New work is rejected while draining.
	if err := client.Ping(); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("Ping during drain: want draining error, got %v", err)
	}
	// The in-flight call completes cleanly.
	close(stub.slow)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight RPC failed during graceful drain: %v", err)
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// TestServerAbruptShutdown: Shutdown(0) severs in-flight calls — the crash
// simulation used by the fault tests.
func TestServerAbruptShutdown(t *testing.T) {
	stub := &stubWorker{slow: make(chan struct{})}
	defer close(stub.slow)
	srv := NewServer(stub)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	inflight := make(chan error, 1)
	go func() { inflight <- client.GatherBGP() }()
	time.Sleep(50 * time.Millisecond)
	srv.Shutdown(0)
	if err := <-inflight; err == nil {
		t.Fatal("in-flight RPC must fail on abrupt shutdown")
	}
}

// TestWrapperIdempotencyFlags verifies the retry-safety table the client
// hands to the fault layer: phase mutations must never be marked safe.
func TestWrapperIdempotencyFlags(t *testing.T) {
	flags := map[string]bool{}
	var mu sync.Mutex
	stub := &stubWorker{}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go Serve(stub, lis)
	client, err := DialWrapped(lis.Addr().String(), 0, func(method string, idempotent bool, call func() error) error {
		mu.Lock()
		flags[method] = idempotent
		mu.Unlock()
		return call()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	client.Ping()
	client.Setup(SetupRequest{Protocol: ProtocolVersion, WorkerID: 1})
	client.GatherBGP()
	client.ApplyBGP()
	client.EndShard()
	client.PullBGPBatchWire([]PullBGPRequest{{Exporter: "r9", Puller: "r1"}})
	client.PullLSABatchWire([]PullLSAsRequest{{Exporter: "r9", Puller: "r1"}})
	client.BeginQueryBatch(QueryBatchRequest{})
	client.Inject(InjectRequest{Source: "r1"})
	client.DPRound()
	client.DeliverBatch(DeliverBatchRequest{From: 1})
	client.FinishQuery()
	client.Stats()

	want := map[string]bool{
		"Ping": true, "Setup": true, "Stats": true,
		"PullBGPBatchWire": true, "PullLSABatchWire": true, "BeginQueryBatch": true,
		"GatherBGP": false, "ApplyBGP": false, "EndShard": false,
		"Inject": false, "DPRound": false,
		"DeliverBatch": false, "FinishQuery": false,
	}
	for m, idem := range want {
		got, ok := flags[m]
		if !ok {
			t.Errorf("%s never went through the wrapper", m)
		} else if got != idem {
			t.Errorf("%s idempotent = %v, want %v", m, got, idem)
		}
	}
}

// Interface conformance: both implementations satisfy WorkerAPI.
var (
	_ WorkerAPI = (*stubWorker)(nil)
	_ WorkerAPI = (*RemoteWorker)(nil)
)
