package core

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"s2/internal/fault"
	"s2/internal/metrics"
	"s2/internal/sidecar"
)

// injectOn returns a WrapWorker hook that interposes a fault.Injector on one
// worker id, leaving the others untouched, and reports the injector back.
func injectOn(id int, plans ...fault.Plan) (func(int, sidecar.WorkerAPI) sidecar.WorkerAPI, **fault.Injector) {
	var inj *fault.Injector
	hook := func(wid int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
		if wid != id {
			return w
		}
		inj = fault.NewInjector(w, plans...)
		return inj
	}
	return hook, &inj
}

// TestCrashDuringBGPRecovers is the ISSUE's acceptance test: crash 1 of 3
// workers in the middle of the BGP phase; the run must complete on the 2
// survivors and produce reachability answers and RIBs identical to a
// fault-free run. Determinism across partitionings (proved by
// TestShardingPreservesRIBs et al.) is exactly what makes
// re-partition-and-re-execute a sound recovery strategy.
func TestCrashDuringBGPRecovers(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	hook, _ := injectOn(2, fault.Plan{Method: "ApplyBGP", Nth: 2, Mode: fault.Crash})
	c := newS2(t, snap, texts, Options{
		Workers: 3, KeepRIBs: true, Seed: 21,
		Recover: true, WrapWorker: hook,
	})
	defer c.Close()
	res := runFull(t, c)
	if len(res.Unreached) != 0 || len(res.Violations) != 0 {
		t.Fatalf("recovered run must verify clean: unreached=%v violations=%v",
			res.Unreached, res.Violations)
	}

	fc := c.FaultCounters()
	if fc.Get("worker.deaths") != 1 {
		t.Fatalf("worker.deaths = %d, want 1 (counters: %s)", fc.Get("worker.deaths"), fc)
	}
	if fc.Get("recoveries") < 1 {
		t.Fatalf("recoveries = %d, want >= 1", fc.Get("recoveries"))
	}

	// Answers are byte-identical to a fault-free run: same RIBs everywhere.
	gotRIBs, err := c.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	snap2, _ := fatTreeSnap(t, 4)
	clean := newS2(t, snap2, texts, Options{Workers: 3, KeepRIBs: true, Seed: 21})
	cleanRes := runFull(t, clean)
	if len(cleanRes.Unreached) != 0 || len(cleanRes.Violations) != 0 {
		t.Fatalf("fault-free baseline dirty: %v %v", cleanRes.Unreached, cleanRes.Violations)
	}
	wantRIBs, err := clean.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRIBs) != len(wantRIBs) {
		t.Fatalf("node counts differ: %d vs %d", len(gotRIBs), len(wantRIBs))
	}
	for node, want := range wantRIBs {
		if !want.Equal(gotRIBs[node]) {
			t.Fatalf("recovered RIB differs at %s: %v", node, want.Diff(gotRIBs[node]))
		}
	}
}

// TestCrashDuringQueryRecovers kills a worker during packet forwarding; the
// controller must rewind through every invalidated stage (re-partition,
// re-run CP and DP on survivors) and still answer the all-pairs check
// identically.
func TestCrashDuringQueryRecovers(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	hook, _ := injectOn(1, fault.Plan{Method: "DPRound", Nth: 1, Mode: fault.Crash})
	c := newS2(t, snap, texts, Options{
		Workers: 3, Seed: 22,
		Recover: true, WrapWorker: hook,
	})
	defer c.Close()
	res := runFull(t, c)
	if len(res.Unreached) != 0 || len(res.Violations) != 0 {
		t.Fatalf("recovered query differs: unreached=%v violations=%v",
			res.Unreached, res.Violations)
	}
	if c.FaultCounters().Get("worker.deaths") != 1 {
		t.Fatalf("counters: %s", c.FaultCounters())
	}
}

// TestCrashDuringQueryWithWireSessions extends the recovery matrix to the
// shared-substrate wire protocol: the crash fires on the SECOND DPRound,
// after round one has established per-peer wire sessions between the
// workers, so recovery must discard mid-flight delta state (sender epochs,
// receiver tables, parked wireInbox deliveries) and still produce results
// byte-identical to a fault-free run.
func TestCrashDuringQueryWithWireSessions(t *testing.T) {
	run := func(hook func(int, sidecar.WorkerAPI) sidecar.WorkerAPI, recover bool) (string, string) {
		snap, texts := fatTreeSnap(t, 4)
		c := newS2(t, snap, texts, Options{
			Workers: 3, Seed: 22, KeepRIBs: true,
			Recover: recover, WrapWorker: hook,
		})
		defer c.Close()
		res := runFull(t, c)
		if len(res.Unreached) != 0 || len(res.Violations) != 0 {
			t.Fatalf("run must verify clean: unreached=%v violations=%v", res.Unreached, res.Violations)
		}
		ribs, err := c.CollectRIBs()
		if err != nil {
			t.Fatal(err)
		}
		if recover && c.FaultCounters().Get("worker.deaths") != 1 {
			t.Fatalf("counters: %s", c.FaultCounters())
		}
		return ribsFingerprint(ribs), checkFingerprint(c, res)
	}

	cleanRIBs, cleanCheck := run(nil, false)
	hook, _ := injectOn(1, fault.Plan{Method: "DPRound", Nth: 2, Mode: fault.Crash})
	gotRIBs, gotCheck := run(hook, true)
	if gotRIBs != cleanRIBs {
		t.Error("RIBs differ between recovered and fault-free wire-dedup runs")
	}
	if gotCheck != cleanCheck {
		t.Errorf("verification outcomes differ:\nclean:\n%s\nrecovered:\n%s", cleanCheck, gotCheck)
	}
}

// TestCrashWithoutRecoveryFailsTyped: with Recover off a worker death must
// surface promptly as a typed transient error — never a hang, never a
// misclassified application error.
func TestCrashWithoutRecoveryFailsTyped(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	hook, _ := injectOn(2, fault.Plan{Method: "ApplyBGP", Nth: 2, Mode: fault.Crash})
	c := newS2(t, snap, texts, Options{Workers: 3, Seed: 23, WrapWorker: hook})
	defer c.Close()
	start := time.Now()
	err := c.RunControlPlane()
	if err == nil {
		t.Fatal("crashed worker must fail the run when recovery is off")
	}
	if !fault.IsTransient(err) {
		t.Fatalf("error must classify transient for callers to act on: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("failure took %v; must not hang", elapsed)
	}
}

// TestAllWorkersCrashNoCapacity: when every worker dies the controller must
// abort cleanly with a capacity error instead of retrying forever.
func TestAllWorkersCrashNoCapacity(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	var mu sync.Mutex
	injectors := map[int]*fault.Injector{}
	hook := func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
		inj := fault.NewInjector(w, fault.Plan{Method: "ApplyBGP", Nth: 1, Mode: fault.Crash})
		mu.Lock()
		injectors[id] = inj
		mu.Unlock()
		return inj
	}
	c := newS2(t, snap, texts, Options{
		Workers: 2, Seed: 24, Recover: true, WrapWorker: hook,
	})
	defer c.Close()
	err := c.RunControlPlane()
	if err == nil {
		t.Fatal("run with zero surviving workers must fail")
	}
	if !strings.Contains(err.Error(), "no capacity") {
		t.Fatalf("want clean no-capacity error, got: %v", err)
	}
}

// killSwitch wraps one remote worker's transport and abruptly shuts its
// server down right before the Nth ApplyBGP, modelling a worker process
// killed mid-run.
type killSwitch struct {
	sidecar.WorkerAPI
	mu      sync.Mutex
	applies int
	nth     int
	kill    func()
}

func (k *killSwitch) ApplyBGP() (sidecar.ApplyReply, error) {
	k.mu.Lock()
	k.applies++
	fire := k.applies == k.nth
	k.mu.Unlock()
	if fire {
		k.kill()
	}
	return k.WorkerAPI.ApplyBGP()
}

func startRemoteWorkers(t *testing.T, n int) ([]string, []*sidecar.Server) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*sidecar.Server, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		servers[i] = sidecar.NewServer(NewWorker())
		go servers[i].Serve(lis)
		t.Cleanup(func() { servers[i].Shutdown(0) })
	}
	return addrs, servers
}

// TestProtocolMismatchFailsSetup: a Setup stamped with another protocol
// version — a controller from a different build — must fail over real TCP
// with a typed *sidecar.ProtocolError naming both versions, must be fatal
// (never retried, even under a retrying policy), and must not reach the
// worker.
func TestProtocolMismatchFailsSetup(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := sidecar.NewServer(NewWorker())
	var mu sync.Mutex
	served := map[string]int{}
	srv.SetRPCHook(func(method string) func(error) {
		mu.Lock()
		served[method]++
		mu.Unlock()
		return func(error) {}
	})
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Shutdown(0) })

	faults := metrics.NewFaultCounters()
	caller := fault.NewCaller(fault.Policy{Timeout: 5 * time.Second, Retries: 3}, faults)
	rw, err := sidecar.DialWrapped(lis.Addr().String(), time.Second, caller.Wrap())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	foreign := sidecar.ProtocolVersion + 1
	err = rw.Setup(sidecar.SetupRequest{Protocol: foreign, WorkerID: 0})
	var pe *sidecar.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("Setup with protocol v%d: want *sidecar.ProtocolError, got %T %v", foreign, err, err)
	}
	if pe.Controller != foreign || pe.Worker != sidecar.ProtocolVersion {
		t.Errorf("ProtocolError = %+v, want controller v%d, worker v%d", pe, foreign, sidecar.ProtocolVersion)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("v%d", foreign)) || !strings.Contains(msg, fmt.Sprintf("v%d", sidecar.ProtocolVersion)) {
		t.Errorf("error %q does not name both versions", msg)
	}
	if fault.IsTransient(err) {
		t.Error("a protocol mismatch must be fatal, not transient")
	}
	mu.Lock()
	setups := served["Setup"]
	mu.Unlock()
	if setups != 1 {
		t.Errorf("server saw %d Setup calls, want exactly 1 (no retries)", setups)
	}
	if n := faults.Get("rpc.retries"); n != 0 {
		t.Errorf("caller retried a protocol mismatch %d times", n)
	}

	// The same connection still works for a matching build.
	if err := rw.Setup(sidecar.SetupRequest{Protocol: sidecar.ProtocolVersion, WorkerID: 0}); err != nil {
		t.Fatalf("Setup with the matching protocol: %v", err)
	}
}

// TestRemoteWorkerKilledMidRun kills a real TCP worker's server in the
// middle of the BGP phase. Without recovery the run fails with a typed
// transient error; with recovery it completes and matches an in-process
// fault-free run.
func TestRemoteWorkerKilledMidRun(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)

	t.Run("NoRecovery", func(t *testing.T) {
		addrs, servers := startRemoteWorkers(t, 3)
		hook := func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
			if id != 2 {
				return w
			}
			return &killSwitch{WorkerAPI: w, nth: 2, kill: func() { servers[2].Shutdown(0) }}
		}
		c := newS2(t, snap, texts, Options{
			WorkerAddrs: addrs, Seed: 25,
			RPCTimeout: 5 * time.Second, WrapWorker: hook,
		})
		defer c.Close()
		err := c.RunControlPlane()
		if err == nil {
			t.Fatal("killed worker must fail the run")
		}
		if !fault.IsTransient(err) {
			t.Fatalf("want typed transient error, got: %v", err)
		}
	})

	t.Run("Recovery", func(t *testing.T) {
		snapR, _ := fatTreeSnap(t, 4)
		addrs, servers := startRemoteWorkers(t, 3)
		hook := func(id int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
			if id != 2 {
				return w
			}
			return &killSwitch{WorkerAPI: w, nth: 2, kill: func() { servers[2].Shutdown(0) }}
		}
		c := newS2(t, snapR, texts, Options{
			WorkerAddrs: addrs, KeepRIBs: true, Seed: 25,
			RPCTimeout: 5 * time.Second, Recover: true, WrapWorker: hook,
		})
		defer c.Close()
		runCP(t, c)
		gotRIBs, err := c.CollectRIBs()
		if err != nil {
			t.Fatal(err)
		}
		if c.FaultCounters().Get("worker.deaths") != 1 {
			t.Fatalf("counters: %s", c.FaultCounters())
		}

		snapC, _ := fatTreeSnap(t, 4)
		clean := newS2(t, snapC, texts, Options{Workers: 3, KeepRIBs: true, Seed: 25})
		runCP(t, clean)
		wantRIBs, err := clean.CollectRIBs()
		if err != nil {
			t.Fatal(err)
		}
		for node, want := range wantRIBs {
			if !want.Equal(gotRIBs[node]) {
				t.Fatalf("recovered remote RIB differs at %s", node)
			}
		}
	})
}

// TestRPCDeadlinesBoundAllCalls is the ISSUE's companion acceptance test:
// against a worker that accepts connections but never answers, EVERY RPC in
// the WorkerAPI surface must return within the configured deadline.
func TestRPCDeadlinesBoundAllCalls(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { // accept and hold: an unresponsive worker
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	const deadline = 100 * time.Millisecond
	caller := fault.NewCaller(fault.Policy{Timeout: deadline}, nil)
	rw, err := sidecar.DialWrapped(lis.Addr().String(), time.Second, caller.Wrap())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()

	calls := map[string]func() error{
		"Ping":             rw.Ping,
		"Setup":            func() error { return rw.Setup(sidecar.SetupRequest{}) },
		"BeginShard":       func() error { return rw.BeginShard(sidecar.BeginShardRequest{}) },
		"GatherBGP":        rw.GatherBGP,
		"ApplyBGP":         func() error { _, err := rw.ApplyBGP(); return err },
		"GatherOSPF":       rw.GatherOSPF,
		"ApplyOSPF":        func() error { _, err := rw.ApplyOSPF(); return err },
		"EndShard":         func() error { _, err := rw.EndShard(); return err },
		"PullBGPBatchWire": func() error { _, err := rw.PullBGPBatchWire(nil); return err },
		"PullLSABatchWire": func() error { _, err := rw.PullLSABatchWire(nil); return err },
		"ComputeDP":        func() error { _, err := rw.ComputeDP(); return err },
		"BeginQueryBatch":  func() error { return rw.BeginQueryBatch(sidecar.QueryBatchRequest{}) },
		"Inject":           func() error { return rw.Inject(sidecar.InjectRequest{}) },
		"DPRound":          rw.DPRound,
		"HasWork":          func() error { _, err := rw.HasWork(); return err },
		"DeliverBatch": func() error {
			_, err := rw.DeliverBatch(sidecar.DeliverBatchRequest{})
			return err
		},
		"FinishQuery": func() error { _, err := rw.FinishQuery(); return err },
		"CollectRIBs": func() error { _, err := rw.CollectRIBs(); return err },
		"Stats":       func() error { _, err := rw.Stats(); return err },
	}
	for name, call := range calls {
		start := time.Now()
		err := call()
		elapsed := time.Since(start)
		if err == nil {
			t.Errorf("%s against a silent worker must fail", name)
		}
		if !fault.IsTransient(err) {
			t.Errorf("%s: want transient deadline error, got %v", name, err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%s took %v; the %v deadline did not bound it", name, elapsed, deadline)
		}
	}
}

// TestControllerDeadlineOnUnresponsiveWorker drives the same property
// through the controller: with one silent worker in the pool, Setup must
// fail within the deadline budget rather than hang.
func TestControllerDeadlineOnUnresponsiveWorker(t *testing.T) {
	addrs, _ := startRemoteWorkers(t, 1)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	addrs = append(addrs, lis.Addr().String())

	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		WorkerAddrs: addrs, Seed: 26,
		RPCTimeout: 100 * time.Millisecond, RPCRetries: 1,
	})
	defer c.Close()
	start := time.Now()
	err = c.Setup()
	if err == nil {
		t.Fatal("Setup with a silent worker must fail")
	}
	if !fault.IsTransient(err) {
		t.Fatalf("want transient error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Setup took %v; deadlines did not bound it", elapsed)
	}
}

// hungWorker serves normally until its 2nd ApplyBGP, then blocks every
// subsequent call forever — a wedged process, not a dead one. Only the
// heartbeat detector can catch this when no RPC deadline is configured.
type hungWorker struct {
	sidecar.WorkerAPI
	mu      sync.Mutex
	applies int
	hung    bool
	block   chan struct{}
}

func (h *hungWorker) stalled() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hung
}

func (h *hungWorker) Ping() error {
	if h.stalled() {
		<-h.block
	}
	return h.WorkerAPI.Ping()
}

func (h *hungWorker) ApplyBGP() (sidecar.ApplyReply, error) {
	h.mu.Lock()
	h.applies++
	if h.applies == 2 {
		h.hung = true
	}
	hung := h.hung
	h.mu.Unlock()
	if hung {
		<-h.block
	}
	return h.WorkerAPI.ApplyBGP()
}

// TestHeartbeatRescuesHungWorker runs with NO RPC deadline: a worker that
// wedges mid-phase would hang the controller forever, except the failure
// detector declares it dead and closes its connection, unblocking the
// in-flight call so recovery can proceed.
func TestHeartbeatRescuesHungWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("heartbeat timers")
	}
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })

	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis0.Close()
	go sidecar.Serve(NewWorker(), lis0)

	lis1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis1.Close()
	hung := &hungWorker{WorkerAPI: NewWorker(), block: block}
	go sidecar.Serve(hung, lis1)

	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		WorkerAddrs: []string{lis0.Addr().String(), lis1.Addr().String()},
		KeepRIBs:    true, Seed: 27,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   1,
		Recover:           true,
	})
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- c.RunControlPlane() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("recovery after heartbeat death failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("controller hung on a wedged worker despite heartbeats")
	}
	fc := c.FaultCounters()
	if fc.Get("heartbeat.deaths") < 1 || fc.Get("worker.deaths") < 1 {
		t.Fatalf("heartbeat death not recorded: %s", fc)
	}

	// The survivors' answers are still correct.
	gotRIBs, err := c.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	snap2, _ := fatTreeSnap(t, 4)
	clean := newS2(t, snap2, texts, Options{Workers: 2, KeepRIBs: true, Seed: 27})
	runCP(t, clean)
	wantRIBs, err := clean.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	for node, want := range wantRIBs {
		if !want.Equal(gotRIBs[node]) {
			t.Fatalf("post-recovery RIB differs at %s", node)
		}
	}
}
