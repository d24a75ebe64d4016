package core

import (
	"strings"
	"sync"
	"testing"

	"s2/internal/obs"
	"s2/internal/sidecar"
)

// wireRun executes a full fat-tree run and returns the two determinism
// fingerprints plus the metrics snapshot.
func wireRun(t *testing.T, workers, procs, shards int, hook func(int, sidecar.WorkerAPI) sidecar.WorkerAPI) (string, string, map[string]float64) {
	t.Helper()
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{
		Workers: workers, Shards: shards, Seed: 1, KeepRIBs: true,
		Parallelism: procs,
		WrapWorker:  hook,
		Metrics:     reg,
	})
	defer c.Close()
	res := runFull(t, c)
	ribs, err := c.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	return ribsFingerprint(ribs), checkFingerprint(c, res), reg.Snapshot()
}

// metricSum totals every series of one metric family.
func metricSum(snap map[string]float64, family string) float64 {
	total := 0.0
	for k, v := range snap {
		if strings.HasPrefix(k, family) {
			total += v
		}
	}
	return total
}

// TestWireDedupRunIsByteIdentical is the determinism contract for the
// shared-substrate wire codec: 3-worker runs — sequential and pooled, one
// shard and two — must produce byte-identical RIBs and verification
// outcomes to a single sequential worker, which ships nothing across a
// worker boundary, while the wire path actually carries (and dedups)
// packets.
func TestWireDedupRunIsByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 2} {
		baseRIBs, baseCheck, baseSnap := wireRun(t, 1, 1, shards, nil)
		if !strings.Contains(baseRIBs, "node edge-0-0") {
			t.Fatalf("shards=%d: baseline fingerprint looks empty:\n%.200s", shards, baseRIBs)
		}
		for _, procs := range []int{1, 8} {
			ribs, check, snap := wireRun(t, 3, procs, shards, nil)
			if ribs != baseRIBs {
				t.Errorf("shards=%d procs=%d: RIBs differ from the single-worker run", shards, procs)
			}
			if check != baseCheck {
				t.Errorf("shards=%d procs=%d: verification outcomes differ:\nbase:\n%s\n3 workers:\n%s", shards, procs, baseCheck, check)
			}
			if got, base := metricSum(snap, MetricWireBytes), metricSum(baseSnap, MetricWireBytes); got <= base {
				t.Errorf("shards=%d procs=%d: 3 workers moved %v wire bytes, no more than the single worker's harvest (%v)", shards, procs, got, base)
			}
			if metricSum(snap, MetricWireDeduped) == 0 {
				t.Errorf("shards=%d procs=%d: dedup counter never moved", shards, procs)
			}
		}
	}
}

// resetOncePeer refuses the first DeliverBatch with a Reset reply — the
// receiver claiming it lost the session — without delivering it. The
// sender must bump its epoch and re-send self-contained; no packet may be
// lost and no result may change.
type resetOncePeer struct {
	sidecar.WorkerAPI
	mu    *sync.Mutex
	fired *bool
}

func (p *resetOncePeer) DeliverBatch(req sidecar.DeliverBatchRequest) (sidecar.DeliverBatchReply, error) {
	p.mu.Lock()
	first := !*p.fired
	*p.fired = true
	p.mu.Unlock()
	if first {
		return sidecar.DeliverBatchReply{Reset: true}, nil
	}
	return p.WorkerAPI.DeliverBatch(req)
}

func TestWireSessionResetHandshakeEndToEnd(t *testing.T) {
	baseRIBs, baseCheck, _ := wireRun(t, 1, 1, 1, nil)

	var mu sync.Mutex
	fired := false
	hook := func(_ int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
		return &resetOncePeer{WorkerAPI: w, mu: &mu, fired: &fired}
	}
	ribs, check, _ := wireRun(t, 3, 1, 1, hook)
	mu.Lock()
	hit := fired
	mu.Unlock()
	if !hit {
		t.Fatal("the resetting peer never saw a DeliverBatch")
	}
	if ribs != baseRIBs || check != baseCheck {
		t.Error("results changed after a forced wire-session reset")
	}
}
