package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"s2/internal/config"
	"s2/internal/sidecar"
)

// convergeCP drives the workers' Gather/Apply fixed point directly —
// BeginShard, then rounds until quiescent — WITHOUT the controller's
// EndShard, which strips the full-attribute RIBs the exporters serve
// from. The cursor tests probe exporters in their converged, still-live
// state, exactly what a mid-iteration pull sees.
func convergeCP(t *testing.T, c *Controller, gather func(*Worker) error, apply func(*Worker) (sidecar.ApplyReply, error)) {
	t.Helper()
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.locals {
		if err := w.BeginShard(sidecar.BeginShardRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; ; round++ {
		if round > 64 {
			t.Fatal("control plane did not converge in 64 rounds")
		}
		for _, w := range c.locals {
			if err := gather(w); err != nil {
				t.Fatal(err)
			}
		}
		changed := false
		for _, w := range c.locals {
			reply, err := apply(w)
			if err != nil {
				t.Fatal(err)
			}
			changed = changed || reply.Changed
		}
		if !changed {
			return
		}
	}
}

// pullCursorWorker converges a 2-worker FatTree BGP control plane and
// returns a local worker plus one (exporter, puller) pair that exports
// at least one advertisement: the cursor tests need a real BGP session,
// because ExportsTo only speaks to configured neighbors.
func pullCursorWorker(t *testing.T) (*Worker, string, string) {
	t.Helper()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{Workers: 2, Seed: 1, Parallelism: 1})
	t.Cleanup(func() { c.Close() })
	convergeCP(t, c,
		func(w *Worker) error { return w.GatherBGP() },
		func(w *Worker) (sidecar.ApplyReply, error) { return w.ApplyBGP() })
	for _, w := range c.locals {
		if w == nil {
			continue
		}
		for exporter := range w.bgpProcs {
			for _, dest := range w.adjIndex[exporter] {
				advs, _, fresh, err := w.pullBGP(exporter, dest.Node, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				if fresh && len(advs) > 0 {
					return w, exporter, dest.Node
				}
			}
		}
	}
	t.Fatal("no exporting (exporter, puller) pair found")
	return nil, "", ""
}

// TestPullBGPCursorSemantics pins the since/seen delta-pull contract the
// batched and per-pull paths both rely on: a pull at the current version
// with seen=true is a cheap no-op, any stale or unseen cursor re-exports.
func TestPullBGPCursorSemantics(t *testing.T) {
	w, exporter, puller := pullCursorWorker(t)

	advs, ver, fresh, err := w.pullBGP(exporter, puller, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh || len(advs) == 0 || ver == 0 {
		t.Fatalf("initial pull: fresh=%v advs=%d ver=%d, want a fresh export", fresh, len(advs), ver)
	}

	// Up-to-date cursor: nothing changed, so no payload and no freshness.
	got, ver2, fresh2, err := w.pullBGP(exporter, puller, ver, true)
	if err != nil {
		t.Fatal(err)
	}
	if fresh2 || got != nil || ver2 != ver {
		t.Fatalf("up-to-date pull: fresh=%v advs=%d ver=%d, want stale no-op at %d", fresh2, len(got), ver2, ver)
	}

	// seen=false means the puller lost its state (shard reset, worker
	// recovery): the exporter must re-send even at the current version.
	got, _, fresh3, err := w.pullBGP(exporter, puller, ver, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh3 || len(got) != len(advs) {
		t.Fatalf("seen=false pull: fresh=%v advs=%d, want full re-export of %d", fresh3, len(got), len(advs))
	}

	// A stale cursor (older version) re-exports too.
	got, _, fresh4, err := w.pullBGP(exporter, puller, ver-1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh4 || len(got) != len(advs) {
		t.Fatalf("stale-cursor pull: fresh=%v advs=%d, want full re-export of %d", fresh4, len(got), len(advs))
	}

	if _, _, _, err := w.pullBGP("no-such-node", puller, 0, false); err == nil {
		t.Fatal("pull from a non-hosted exporter must error")
	}
}

// TestPullBGPBatchMatchesSingles pins the batch RPC's contract: each
// entry is served exactly like the equivalent individual pullBGP, in
// request order, including the cursor semantics.
func TestPullBGPBatchMatchesSingles(t *testing.T) {
	w, exporter, puller := pullCursorWorker(t)
	advs, ver, _, err := w.pullBGP(exporter, puller, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []sidecar.PullBGPRequest{
		{Exporter: exporter, Puller: puller, Since: 0, Seen: false},
		{Exporter: exporter, Puller: puller, Since: ver, Seen: true},
		{Exporter: exporter, Puller: puller, Since: ver - 1, Seen: true},
	}
	replies, err := w.PullBGPBatchWire(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != len(reqs) {
		t.Fatalf("got %d replies for %d requests", len(replies), len(reqs))
	}
	if !replies[0].Fresh || !reflect.DeepEqual(replies[0].Advs, advs) {
		t.Fatalf("batch[0] should match the initial single pull")
	}
	if replies[1].Fresh || replies[1].Advs != nil || replies[1].Version != ver {
		t.Fatalf("batch[1] should be a stale no-op, got fresh=%v ver=%d", replies[1].Fresh, replies[1].Version)
	}
	if !replies[2].Fresh || len(replies[2].Advs) != len(advs) {
		t.Fatalf("batch[2] should re-export for the stale cursor")
	}
	if _, err := w.PullBGPBatchWire([]sidecar.PullBGPRequest{{Exporter: "no-such-node", Puller: puller}}); err == nil {
		t.Fatal("batch with a non-hosted exporter must error")
	}
}

// TestPullBGPConcurrentPullers hammers one exporter from many goroutines,
// each maintaining its own version cursor the way per-node gather tasks
// do. The contract under concurrency: versions never move backwards, a
// fresh reply always carries the advancing version, and a converged
// exporter eventually answers every cursor with a stale no-op. Run under
// -race this also proves the exporter-side locking.
func TestPullBGPConcurrentPullers(t *testing.T) {
	w, exporter, _ := pullCursorWorker(t)
	pullers := make([]string, 0, 4)
	for _, dest := range w.adjIndex[exporter] {
		pullers = append(pullers, dest.Node)
	}
	if len(pullers) == 0 {
		t.Fatal("exporter has no neighbors")
	}

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			puller := pullers[g%len(pullers)]
			var ver uint64
			seen := false
			freshCount := 0
			for i := 0; i < iters; i++ {
				// Mix single and batch pulls on the same cursor.
				var advs int
				var nv uint64
				var fresh bool
				if i%3 == 2 {
					replies, err := w.PullBGPBatchWire([]sidecar.PullBGPRequest{
						{Exporter: exporter, Puller: puller, Since: ver, Seen: seen},
					})
					if err != nil {
						errs <- err
						return
					}
					advs, nv, fresh = len(replies[0].Advs), replies[0].Version, replies[0].Fresh
				} else {
					a, v, f, err := w.pullBGP(exporter, puller, ver, seen)
					if err != nil {
						errs <- err
						return
					}
					advs, nv, fresh = len(a), v, f
				}
				if nv < ver {
					errs <- fmt.Errorf("goroutine %d: version moved backwards: %d -> %d", g, ver, nv)
					return
				}
				if fresh {
					freshCount++
					if advs == 0 {
						errs <- fmt.Errorf("goroutine %d: fresh reply with no advertisements", g)
						return
					}
					ver, seen = nv, true
				} else if advs != 0 {
					errs <- fmt.Errorf("goroutine %d: stale reply carried %d advertisements", g, advs)
					return
				}
			}
			// The control plane is converged, so after the first fresh
			// export this cursor must have gone quiet.
			if freshCount != 1 {
				errs <- fmt.Errorf("goroutine %d: %d fresh replies from a converged exporter, want 1", g, freshCount)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ospfLineTexts is a 3-router OSPF chain (r1 - r2 - r3), the smallest
// topology whose LSA flooding crosses a worker boundary when split two
// ways.
func ospfLineTexts() map[string]string {
	return map[string]string{
		"r1": `hostname r1
interface eth0
 ip address 10.0.0.0/31
interface lo0
 ip address 192.168.0.1/32
router ospf 1
 router-id 0.0.0.1
`,
		"r2": `hostname r2
interface eth0
 ip address 10.0.0.1/31
interface eth1
 ip address 10.0.1.0/31
router ospf 1
 router-id 0.0.0.2
`,
		"r3": `hostname r3
interface eth0
 ip address 10.0.1.1/31
interface lo0
 ip address 192.168.0.3/32
router ospf 1
 router-id 0.0.0.3
`,
	}
}

// TestPullLSACursorSemantics is the OSPF analogue: LSAsTo floods the full
// LSDB on a stale or unseen cursor and no-ops on an up-to-date one, for
// single pulls and batches alike, under concurrent pullers.
func TestPullLSACursorSemantics(t *testing.T) {
	texts := ospfLineTexts()
	snap, err := config.ParseTexts(withCfgSuffix(texts))
	if err != nil {
		t.Fatal(err)
	}
	c := newS2(t, snap, texts, Options{Workers: 2, Seed: 1, Parallelism: 1})
	defer c.Close()
	convergeCP(t, c,
		func(w *Worker) error { return w.GatherOSPF() },
		func(w *Worker) (sidecar.ApplyReply, error) { return w.ApplyOSPF() })

	var w *Worker
	for _, lw := range c.locals {
		if lw != nil && lw.ospfProcs["r2"] != nil {
			w = lw
		}
	}
	if w == nil {
		t.Fatal("no local worker hosts r2")
	}

	lsas, ver, fresh, err := w.pullLSAs("r2", "r1", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// r2's converged LSDB holds all three routers' LSAs.
	if !fresh || len(lsas) != 3 || ver == 0 {
		t.Fatalf("initial LSA pull: fresh=%v lsas=%d ver=%d, want full 3-LSA flood", fresh, len(lsas), ver)
	}
	got, ver2, fresh2, err := w.pullLSAs("r2", "r1", ver, true)
	if err != nil {
		t.Fatal(err)
	}
	if fresh2 || got != nil || ver2 != ver {
		t.Fatalf("up-to-date LSA pull: fresh=%v lsas=%d, want stale no-op", fresh2, len(got))
	}
	if _, _, _, err := w.pullLSAs("no-such-node", "r1", 0, false); err == nil {
		t.Fatal("LSA pull from a non-hosted exporter must error")
	}

	replies, err := w.PullLSABatchWire([]sidecar.PullLSAsRequest{
		{Exporter: "r2", Puller: "r1", Since: 0, Seen: false},
		{Exporter: "r2", Puller: "r1", Since: ver, Seen: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !replies[0].Fresh || len(replies[0].LSAs) != 3 {
		t.Fatalf("LSA batch[0]: fresh=%v lsas=%d, want full flood", replies[0].Fresh, len(replies[0].LSAs))
	}
	if replies[1].Fresh || replies[1].LSAs != nil {
		t.Fatalf("LSA batch[1]: fresh=%v, want stale no-op", replies[1].Fresh)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ver uint64
			seen := false
			for i := 0; i < 100; i++ {
				lsas, nv, fresh, err := w.pullLSAs("r2", "r1", ver, seen)
				if err != nil {
					errs <- err
					return
				}
				if nv < ver {
					errs <- fmt.Errorf("goroutine %d: LSA version moved backwards", g)
					return
				}
				if fresh {
					if len(lsas) != 3 {
						errs <- fmt.Errorf("goroutine %d: fresh flood had %d LSAs", g, len(lsas))
						return
					}
					ver, seen = nv, true
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
