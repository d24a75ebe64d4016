package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"s2"
	"s2/internal/synth"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
}

// A percentile may be reported only with at least ten samples beyond it.
func TestReportableNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 0.5, false},
		{19, 0.5, false}, // rank 10, 9 beyond
		{20, 0.5, true},  // rank 10, 10 beyond
		{99, 0.9, false}, // rank 90, 9 beyond
		{100, 0.9, true}, // rank 90, 10 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
	}
	for _, c := range cases {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestTallyErrorRate(t *testing.T) {
	var tl tally
	if tl.errorRate() != 0 {
		t.Fatalf("empty tally error rate = %v", tl.errorRate())
	}
	for i := 0; i < 8; i++ {
		tl.record("")
	}
	tl.record("wrong answer")
	tl.record("status 500")
	a, f := tl.counts()
	if a != 10 || f != 2 {
		t.Fatalf("counts = %d attempted, %d failed; want 10, 2", a, f)
	}
	if got := tl.errorRate(); got != 0.2 {
		t.Errorf("error rate = %v, want 0.2", got)
	}
	if tl.reasons["wrong answer"] != 1 || tl.reasons["status 500"] != 1 {
		t.Errorf("reasons = %v", tl.reasons)
	}
}

func TestClassifyByEpochAndFingerprint(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	fp := func(fps ...string) []string { return fps }
	reads := []read{
		// Completion order differs from send order: the first one sent
		// is the miss even though it finished last.
		{sent: at(1), done: at(50), fingerprints: fp("a"), epoch: 1, ok: true},
		{sent: at(2), done: at(3), fingerprints: fp("a"), epoch: 1, ok: true},
		// A batch with one new query misses; once it was asked, the
		// batch's queries hit on their own and as a batch.
		{sent: at(4), done: at(5), fingerprints: fp("a", "b"), epoch: 1, ok: true},
		{sent: at(5), done: at(6), fingerprints: fp("b"), epoch: 1, ok: true},
		{sent: at(6), done: at(7), fingerprints: fp("b", "a"), epoch: 1, ok: true},
		// A new epoch makes the same fingerprint miss again.
		{sent: at(7), done: at(20), fingerprints: fp("a"), epoch: 2, ok: true},
		{sent: at(8), done: at(21), fingerprints: fp("a"), epoch: 2, ok: true},
		// A failed read is neither a hit nor a miss, and asks nothing.
		{sent: at(9), done: at(10), fingerprints: fp("c"), epoch: 2, ok: false},
		{sent: at(11), done: at(12), fingerprints: fp("c"), epoch: 2, ok: true},
	}
	hits, misses := classify(reads)
	wantMiss := []time.Time{at(1), at(4), at(7), at(11)}
	wantHit := []time.Time{at(2), at(5), at(6), at(8)}
	if len(misses) != len(wantMiss) || len(hits) != len(wantHit) {
		t.Fatalf("got %d misses, %d hits; want %d, %d", len(misses), len(hits), len(wantMiss), len(wantHit))
	}
	for i, m := range misses {
		if !m.sent.Equal(wantMiss[i]) {
			t.Errorf("miss %d sent at %v, want %v", i, m.sent, wantMiss[i])
		}
	}
	for i, h := range hits {
		if !h.sent.Equal(wantHit[i]) {
			t.Errorf("hit %d sent at %v, want %v", i, h.sent, wantHit[i])
		}
	}
}

func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, offset: 5 * time.Millisecond, interval: 20 * time.Millisecond}
	if got := s.due(3); !got.Equal(start.Add(65 * time.Millisecond)) {
		t.Errorf("due(3) = %v", got.Sub(start))
	}
	// Due at 5, 25, 45, 65, 85 ms before 100 ms; the next would be due at 105.
	if got := s.count(start.Add(100 * time.Millisecond)); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := s.count(start); got != 0 {
		t.Errorf("count before the offset = %d, want 0", got)
	}
	// A read stuck behind a stall is sent late; its latency still runs
	// from when it was due.
	r := read{due: s.due(1), sent: s.due(1).Add(40 * time.Millisecond), done: s.due(1).Add(43 * time.Millisecond)}
	if got := r.latency(); got != 43*time.Millisecond {
		t.Errorf("latency = %v, want 43ms", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100 * ms},
		// Overlapping children cover 10–60 once, not twice.
		{ID: 2, Parent: 1, Name: "handler", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "handler", Start: 30 * ms, End: 60 * ms},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "tail", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Name: "inner", Start: 20 * ms, End: 25 * ms},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 100*ms - 50*ms - 10*ms,
		2: 40*ms - 5*ms,
		3: 30 * ms,
		4: 30 * ms,
		5: 5 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(span %d) = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.open("x", 0, 1)
	tr.finish(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	p := tr.open("parent", 0, 7)
	tr.record("child", p, 7, time.Now(), time.Now())
	tr.finish(p)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != p || got[1].Req != 7 || got[0].End < got[0].Start {
		t.Fatalf("spans = %+v", got)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	texts, err := synth.FatTree(synth.FatTreeOptions{K: 4, WithACL: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := newInputs(texts, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputs(texts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.queries, b.queries) || !reflect.DeepEqual(a.mix, b.mix) ||
		a.target != b.target || a.verifierSeed != b.verifierSeed {
		t.Fatal("the same seed gave different inputs")
	}
	if len(a.edges) != 8 || a.perEdge != 8 || len(a.queries) != 10 || len(a.mix) != 10 {
		t.Fatalf("edges %d, per-edge queries %d, queries %d, mix %d; want 8, 8, 10, 10",
			len(a.edges), a.perEdge, len(a.queries), len(a.mix))
	}
	w := withdrawn(texts, a.target)
	if strings.Contains(w, " network "+a.target.prefix+"\n") || len(texts[a.target.name])-len(w) != len(" network "+a.target.prefix+"\n") {
		t.Fatalf("withdrawn config of %s still announces %s or lost more than one line", a.target.name, a.target.prefix)
	}
	if got := a.state(false)[a.target.name]; got != w || a.state(true)[a.target.name] != texts[a.target.name] {
		t.Fatal("state(announced) does not pick the right config text")
	}
}

func TestAnswerComparesSortedSets(t *testing.T) {
	v1 := s2.Violation{Kind: "blackhole", Source: "a", Node: "b", ExampleDst: "10.0.0.1"}
	v2 := s2.Violation{Kind: "loop", Source: "c", Node: "d", ExampleDst: "10.0.0.2"}
	x := newAnswer([]string{"b", "a"}, nil, []s2.Violation{v2, v1})
	y := newAnswer([]string{"a", "b"}, nil, []s2.Violation{v1, v2})
	if !x.equal(y) {
		t.Fatal("order of reached nodes or violations changed the answer")
	}
	if x.equal(newAnswer([]string{"a"}, nil, []s2.Violation{v1, v2})) {
		t.Fatal("a missing reached node went unnoticed")
	}
	v1.Node = "z"
	if x.equal(newAnswer([]string{"a", "b"}, nil, []s2.Violation{v1, v2})) {
		t.Fatal("a changed violation went unnoticed")
	}
}

// TestWorkloadsAnswerCorrectly runs every workload for a second, untraced
// and traced: every checked answer must match the baseline and every
// metric of the run's kind must be measured.
func TestWorkloadsAnswerCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 3, seconds: 1, trace: trace, out: t.TempDir(), commit: "test"}
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if a, f := res.tally.counts(); a == 0 || f != 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", name, trace, f, a, res.tally.failures())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, m := range defs {
				if _, ok := res.metrics[m.name]; !ok {
					t.Errorf("%s (trace %v): %s not measured", name, trace, m.name)
				}
			}
		}
	}
}
