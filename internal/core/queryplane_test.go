package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"s2/internal/bdd"
	"s2/internal/dataplane"
	"s2/internal/obs"
)

// queryColFingerprint renders one collector canonically: per-state packet
// sets plus every device's arrival set, all through the engine's canonical
// serialization (byte-identical for equal sets regardless of internal ref
// numbering).
func queryColFingerprint(c *Controller, col *dataplane.Collector) string {
	var b strings.Builder
	for _, st := range []dataplane.FinalState{dataplane.Arrive, dataplane.Exit, dataplane.Blackhole, dataplane.Loop} {
		fmt.Fprintf(&b, "state %d %x\n", st, c.engine.Serialize(col.StateSet(st)))
	}
	for _, dev := range c.snap.DeviceNames() {
		if r := col.Arrived(dev); r != bdd.False {
			fmt.Fprintf(&b, "arrived %s %x\n", dev, c.engine.Serialize(r))
		}
	}
	return b.String()
}

// queryMix builds a deterministic mix of batch-compatible queries over the
// fat-tree's prefix owners: per-destination reachability, restricted
// sources, and a port/protocol-constrained header.
func queryMix(c *Controller) []*dataplane.Query {
	owners := c.PrefixOwners()
	var qs []*dataplane.Query
	for i, o := range owners {
		if i >= 5 {
			break
		}
		p := c.OwnedPrefixes(o)[0]
		qs = append(qs, &dataplane.Query{
			Header: &dataplane.HeaderSpace{DstPrefix: &p},
			Dests:  []string{o},
		})
	}
	qs = append(qs, &dataplane.Query{
		Header:  &dataplane.HeaderSpace{},
		Sources: owners[:2],
	})
	qs = append(qs, &dataplane.Query{
		Header: &dataplane.HeaderSpace{Proto: 6, DstPortLo: 80, DstPortHi: 80},
	})
	return qs
}

// TestBatchedQueriesByteIdenticalToSequential is the query-plane
// determinism contract: a mix of queries answered through one multi-query
// pass (tagged predicates, shared wavefront, split harvest) must produce
// collectors byte-identical to cold solo RunQuery passes — at sequential
// and parallel per-worker pools alike. A second submission must be served
// entirely from the epoch cache, returning the same collectors.
func TestBatchedQueriesByteIdenticalToSequential(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			reg := obs.NewRegistry()
			snap, texts := fatTreeSnap(t, 4)
			c := newS2(t, snap, texts, Options{
				Workers: 3, Shards: 2, Seed: 1, Parallelism: procs, Metrics: reg,
			})
			defer c.Close()
			runCP(t, c)
			if _, err := c.ComputeDataPlane(); err != nil {
				t.Fatal(err)
			}
			qs := queryMix(c)
			// A query whose only dest is not where its packets leave the
			// network: a one-query pass must classify against that dest set,
			// so those packets are Exit at the prefix owner, never Arrive.
			owners := c.PrefixOwners()
			exitP := c.OwnedPrefixes(owners[0])[0]
			exitQ := len(qs)
			qs = append(qs, &dataplane.Query{
				Header: &dataplane.HeaderSpace{DstPrefix: &exitP},
				Dests:  []string{owners[1]},
			})

			// Cold solo baselines (RunQuery bypasses the cache).
			want := make([]string, len(qs))
			for i, q := range qs {
				col, err := c.RunQuery(q, false)
				if err != nil {
					t.Fatalf("solo query %d: %v", i, err)
				}
				if i == exitQ {
					if col.StateSet(dataplane.Exit) == bdd.False {
						t.Errorf("solo query to %s with dest %s: no Exit outcome", exitP, owners[1])
					}
					if col.StateSet(dataplane.Arrive) != bdd.False || col.Arrived(owners[0]) != bdd.False {
						t.Errorf("solo query to %s with dest %s: packets Arrive at non-dest %s", exitP, owners[1], owners[0])
					}
				}
				want[i] = queryColFingerprint(c, col)
				if want[i] == "" {
					t.Fatalf("solo query %d: empty fingerprint", i)
				}
			}
			passesBefore := reg.Snapshot()[MetricQueryPasses]

			// One submission: the whole mix shares a single symbolic pass.
			cols, epochs, err := c.SubmitQueryBatch(qs, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if got := queryColFingerprint(c, cols[i]); got != want[i] {
					t.Errorf("query %d: batched answer differs from solo:\nsolo:\n%s\nbatched:\n%s", i, want[i], got)
				}
				if epochs[i] != c.Epoch() {
					t.Errorf("query %d: epoch %d, want %d", i, epochs[i], c.Epoch())
				}
			}
			snap1 := reg.Snapshot()
			if got := snap1[MetricQueryPasses] - passesBefore; got != 1 {
				t.Errorf("batched submission ran %v passes, want exactly 1", got)
			}
			if got := snap1[MetricQueryBatchSize+"_sum"]; got < float64(len(qs)) {
				t.Errorf("batch-size sum %v, want >= %d", got, len(qs))
			}

			// Warm repeat: all answers from the cache, same collectors.
			cols2, _, err := c.SubmitQueryBatch(qs, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if cols2[i] != cols[i] {
					t.Errorf("query %d: warm repeat rebuilt the collector", i)
				}
			}
			snap2 := reg.Snapshot()
			if got := snap2[MetricQueryPasses]; got != snap1[MetricQueryPasses] {
				t.Errorf("warm repeat ran %v extra passes", got-snap1[MetricQueryPasses])
			}
			if hits := snap2[MetricQueryCacheHits]; hits < float64(len(qs)) {
				t.Errorf("cache hits %v, want >= %d", hits, len(qs))
			}
		})
	}
}

// TestQuerySlicingMatchesUnsliced runs narrow-source queries with
// intent-based slicing on and off and demands byte-identical answers:
// pruned workers must be provably irrelevant, never load-bearing. It also
// checks that slicing actually prunes for a hop-bounded single-source
// query on a multi-worker fat-tree.
func TestQuerySlicingMatchesUnsliced(t *testing.T) {
	run := func(disable bool) []string {
		snap, texts := fatTreeSnap(t, 4)
		c := newS2(t, snap, texts, Options{
			Workers: 4, Shards: 2, Seed: 1, DisableQuerySlicing: disable,
		})
		defer c.Close()
		runCP(t, c)
		if _, err := c.ComputeDataPlane(); err != nil {
			t.Fatal(err)
		}
		owners := c.PrefixOwners()
		qs := []*dataplane.Query{
			{Header: &dataplane.HeaderSpace{}, Sources: owners[:1], MaxHops: 1},
			{Header: &dataplane.HeaderSpace{}, Sources: owners[:1], MaxHops: 2},
			{Header: &dataplane.HeaderSpace{}, Sources: owners[1:2], Dests: owners[2:3], MaxHops: 4},
		}
		var fps []string
		for i, q := range qs {
			col, err := c.RunQuery(q, false)
			if err != nil {
				t.Fatalf("query %d (slicing disabled=%v): %v", i, disable, err)
			}
			fps = append(fps, queryColFingerprint(c, col))
		}
		if !disable {
			// Hop budget 1 from one edge node cannot cross the whole
			// fat-tree: the slice must be a strict subset.
			ids, err := c.sliceWorkers([][]string{owners[:1]}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ids == nil || len(ids) >= 4 {
				t.Errorf("sliceWorkers pruned nothing for a 1-hop query: %v", ids)
			}
		}
		return fps
	}

	sliced := run(false)
	unsliced := run(true)
	for i := range sliced {
		if sliced[i] != unsliced[i] {
			t.Errorf("query %d: sliced answer differs from unsliced:\nsliced:\n%s\nunsliced:\n%s",
				i, sliced[i], unsliced[i])
		}
	}
}

// TestQueryCacheEpochInvalidation pins the cache key semantics: hits within
// an epoch return the same collector; an epoch advance atomically drops the
// cache so the next submission recomputes (to an equal answer when the
// state is unchanged).
func TestQueryCacheEpochInvalidation(t *testing.T) {
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{Workers: 2, Shards: 2, Seed: 1, Metrics: reg})
	defer c.Close()
	runCP(t, c)
	if _, err := c.ComputeDataPlane(); err != nil {
		t.Fatal(err)
	}
	q := &dataplane.Query{Header: &dataplane.HeaderSpace{}}

	col1, e1, err := c.SubmitQuery(q, false)
	if err != nil {
		t.Fatal(err)
	}
	col2, e2, err := c.SubmitQuery(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if col2 != col1 || e2 != e1 {
		t.Fatalf("second submission missed the cache (col equal=%v, epochs %d/%d)", col2 == col1, e1, e2)
	}
	if hits := reg.Snapshot()[MetricQueryCacheHits]; hits != 1 {
		t.Fatalf("cache hits = %v, want 1", hits)
	}

	c.bumpEpoch()
	col3, e3, err := c.SubmitQuery(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e1+1 {
		t.Fatalf("post-advance epoch = %d, want %d", e3, e1+1)
	}
	if col3 == col1 {
		t.Fatal("epoch advance did not drop the cache")
	}
	if a, b := queryColFingerprint(c, col1), queryColFingerprint(c, col3); a != b {
		t.Fatalf("unchanged state produced a different answer after epoch advance:\n%s\nvs\n%s", a, b)
	}
}

// TestConcurrentSubmitQueryCoalesces hammers SubmitQuery from many
// goroutines (the serving layer's shape) and checks every answer against
// its solo baseline; with identical fingerprints in flight the scheduler
// must also collapse duplicates rather than run one pass each.
func TestConcurrentSubmitQueryCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{Workers: 2, Shards: 2, Seed: 1, Metrics: reg, Parallelism: 2})
	defer c.Close()
	runCP(t, c)
	if _, err := c.ComputeDataPlane(); err != nil {
		t.Fatal(err)
	}
	owners := c.PrefixOwners()
	distinct := []*dataplane.Query{
		{Header: &dataplane.HeaderSpace{}, Dests: owners[:1]},
		{Header: &dataplane.HeaderSpace{}, Dests: owners[1:2]},
		{Header: &dataplane.HeaderSpace{}, Dests: owners[2:3]},
		{Header: &dataplane.HeaderSpace{}, Dests: owners[3:4]},
	}
	want := make([]string, len(distinct))
	for i, q := range distinct {
		col, err := c.RunQuery(q, false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = queryColFingerprint(c, col)
	}
	c.purgeQueryCache() // RunQuery does not cache, but start clean anyway

	const loops = 3
	passesBefore := reg.Snapshot()[MetricQueryPasses]
	var wg sync.WaitGroup
	errs := make(chan error, loops*len(distinct))
	for l := 0; l < loops; l++ {
		for i, q := range distinct {
			wg.Add(1)
			go func(i int, q *dataplane.Query) {
				defer wg.Done()
				col, _, err := c.SubmitQuery(q, false)
				if err != nil {
					errs <- err
					return
				}
				if got := queryColFingerprint(c, col); got != want[i] {
					errs <- fmt.Errorf("query %d: concurrent answer differs from solo", i)
				}
			}(i, q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// 12 submissions over 4 distinct fingerprints: dedup + cache bound the
	// pass count by the number of distinct queries.
	if got := reg.Snapshot()[MetricQueryPasses] - passesBefore; got > float64(len(distinct)) {
		t.Errorf("%v passes for %d distinct queries, want <= %d", got, len(distinct), len(distinct))
	}
}
