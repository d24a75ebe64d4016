package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"s2"
	"s2/internal/core"
	"s2/internal/obs"
	"s2/internal/synth"
)

// bootServer builds a fat-tree verifier, runs the boot verification, and
// wraps it in a test HTTP server with observability off.
func bootServer(t *testing.T) (*httptest.Server, map[string]string) {
	ts, texts, _ := bootServerOpts(t, func(*s2.Options) {}, Options{})
	return ts, texts
}

// bootObsServer is bootServer with the full telemetry stack wired: shared
// tracer, registry, logger (discarded), trace store, and audit journal.
func bootObsServer(t *testing.T) (*httptest.Server, map[string]string, Options) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	opts := Options{
		Registry:         reg,
		Tracer:           tracer,
		TraceCapacity:    64,
		TraceKeepSlowest: 4,
		Logger:           obs.NewLogger(io.Discard, obs.LevelDebug, true),
		Audit:            NewJournal(64, nil),
	}
	ts, texts, _ := bootServerOpts(t, func(o *s2.Options) {
		o.Metrics = reg
		o.Tracer = tracer
		o.Logger = opts.Logger
	}, opts)
	return ts, texts, opts
}

func bootServerOpts(t *testing.T, tweak func(*s2.Options), sopts Options) (*httptest.Server, map[string]string, *s2.Verifier) {
	t.Helper()
	texts, err := synth.FatTree(synth.FatTreeOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	network, err := s2.LoadConfigs(texts)
	if err != nil {
		t.Fatal(err)
	}
	vopts := s2.Options{Workers: 2, Shards: 4, Seed: 5, KeepRIBs: true}
	tweak(&vopts)
	v, err := s2.NewVerifier(network, vopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	if _, err := v.ComputeDataPlane(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(v, sopts).Handler())
	t.Cleanup(ts.Close)
	return ts, texts, v
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return body
}

func postJSON(t *testing.T, url string, req any, wantStatus int) map[string]any {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (body %v)", url, resp.StatusCode, wantStatus, body)
	}
	return body
}

func TestServeDeltaLifecycle(t *testing.T) {
	ts, texts := bootServer(t)

	// Boot state: epoch 1, clean all-pairs, warm queries answer.
	if got := getJSON(t, ts.URL+"/v1/epoch", 200)["epoch"].(float64); got != 1 {
		t.Fatalf("boot epoch = %v, want 1", got)
	}
	ap := getJSON(t, ts.URL+"/v1/queries?type=allpairs", 200)
	if ap["ok"] != true || ap["epoch"].(float64) != 1 {
		t.Fatalf("boot all-pairs: %v", ap)
	}
	rc := getJSON(t, ts.URL+"/v1/queries?type=routecount", 200)
	if rc["routes"].(float64) <= 0 {
		t.Fatalf("routecount: %v", rc)
	}
	ribs := getJSON(t, ts.URL+"/v1/queries?type=ribs&device=edge-0-0", 200)
	if _, ok := ribs["ribs"].(map[string]any)["edge-0-0"]; !ok {
		t.Fatalf("ribs for edge-0-0 missing: %v", ribs)
	}

	// Stage a description-only delta and verify: dp mode, epoch advances.
	edited := strings.Replace(texts["agg-0-0"], "description link to", "description uplink to", 1)
	staged := postJSON(t, ts.URL+"/v1/configs",
		map[string]any{"set": map[string]string{"agg-0-0": edited}}, 200)
	if staged["staged"].(float64) != 1 {
		t.Fatalf("staged: %v", staged)
	}
	rep := postJSON(t, ts.URL+"/v1/verify", map[string]any{}, 200)
	if rep["Mode"] != "dp" || rep["Epoch"].(float64) != 2 {
		t.Fatalf("dp delta report: %v", rep)
	}

	// Status reflects the applied delta and empty staging area.
	st := getJSON(t, ts.URL+"/v1/status", 200)
	if st["staged"].(float64) != 0 || st["epoch"].(float64) != 2 {
		t.Fatalf("status: %v", st)
	}

	// Withdraw an origination: shards mode, answers still clean and warm.
	var netLine string
	for _, line := range strings.Split(texts["edge-1-0"], "\n") {
		if strings.HasPrefix(line, " network ") {
			netLine = line
			break
		}
	}
	if netLine == "" {
		t.Fatal("no network line in edge-1-0")
	}
	withdrawn := strings.Replace(texts["edge-1-0"], netLine+"\n", "", 1)
	postJSON(t, ts.URL+"/v1/configs",
		map[string]any{"set": map[string]string{"edge-1-0": withdrawn}}, 200)
	rep = postJSON(t, ts.URL+"/v1/verify", map[string]any{}, 200)
	if rep["Mode"] != "shards" || rep["Epoch"].(float64) != 3 {
		t.Fatalf("shards delta report: %v", rep)
	}
	ap = getJSON(t, ts.URL+"/v1/queries?type=allpairs", 200)
	if ap["ok"] != true || ap["epoch"].(float64) != 3 {
		t.Fatalf("post-delta all-pairs: %v", ap)
	}

	// Full-snapshot replacement removing one device: full mode.
	snapshot := map[string]string{}
	for name, text := range texts {
		snapshot[name] = text
	}
	snapshot["edge-1-0"] = withdrawn
	delete(snapshot, "edge-1-1")
	staged = postJSON(t, ts.URL+"/v1/configs", map[string]any{"snapshot": snapshot}, 200)
	if staged["removed"].(float64) != 1 {
		t.Fatalf("snapshot staging: %v", staged)
	}
	rep = postJSON(t, ts.URL+"/v1/verify", map[string]any{}, 200)
	if rep["Mode"] != "full" || fmt.Sprint(rep["Removed"]) != "[edge-1-1]" {
		t.Fatalf("snapshot delta report: %v", rep)
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	ts, _ := bootServer(t)

	// Wrong methods.
	resp, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/verify: %d", resp.StatusCode)
	}

	// Unknown query type and unknown device.
	getJSON(t, ts.URL+"/v1/queries?type=bogus", http.StatusBadRequest)
	getJSON(t, ts.URL+"/v1/queries?type=ribs&device=nope", http.StatusNotFound)

	// Bad JSON.
	br, err := http.Post(ts.URL+"/v1/configs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", br.StatusCode)
	}

	// A config that fails to parse: verify fails, staging survives, and a
	// corrected re-verify succeeds.
	postJSON(t, ts.URL+"/v1/configs",
		map[string]any{"set": map[string]string{"edge-0-0": "hostname edge-0-0\ninterface"}}, 200)
	postJSON(t, ts.URL+"/v1/verify", map[string]any{}, http.StatusUnprocessableEntity)
	st := getJSON(t, ts.URL+"/v1/status", 200)
	if st["staged"].(float64) != 1 {
		t.Fatalf("failed verify must keep staging: %v", st)
	}
}

// TestServeStatusAndContentType is the table-driven handler audit: every
// endpoint answers with an explicit JSON Content-Type, malformed bodies are
// client errors (400, never 500), and wrong methods are 405.
func TestServeStatusAndContentType(t *testing.T) {
	ts, texts := bootServer(t)
	// pad grows a JSON object to size bytes with whitespace before its
	// closing brace, so a decoder must read every byte to finish it.
	pad := func(doc string, size int) string {
		return doc[:len(doc)-1] + strings.Repeat(" ", size-len(doc)) + "}"
	}
	query := `{"queries": [{"dst_prefix": "10.128.0.0/24", "dests": ["edge-0-0"]}]}`
	set, err := json.Marshal(map[string]any{"set": map[string]string{"agg-0-0": texts["agg-0-0"]}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"epoch get", "GET", "/v1/epoch", "", 200},
		{"epoch post rejected", "POST", "/v1/epoch", "", 405},
		{"status get", "GET", "/v1/status", "", 200},
		{"status delete rejected", "DELETE", "/v1/status", "", 405},
		{"healthz", "GET", "/healthz", "", 200},
		{"queries put rejected", "PUT", "/v1/queries?type=allpairs", "", 405},
		{"configs get rejected", "GET", "/v1/configs", "", 405},
		{"configs malformed body", "POST", "/v1/configs", "{not json", 400},
		{"configs snapshot plus set", "POST", "/v1/configs",
			`{"snapshot": {"a": "hostname a"}, "remove": ["b"]}`, 400},
		{"verify empty body ok", "POST", "/v1/verify", "", 200},
		{"verify object body ok", "POST", "/v1/verify", "{}", 200},
		{"verify malformed body", "POST", "/v1/verify", "{oops", 400},
		{"verify array body", "POST", "/v1/verify", "[1, 2]", 400},
		// Bodies over their endpoint's cap are 413, never a truncated
		// "bad JSON" 400; bodies just under the cap are still served.
		{"verify body over cap", "POST", "/v1/verify", pad("{}", maxRequestBody+1), 413},
		{"verify body under cap", "POST", "/v1/verify", pad("{}", maxRequestBody), 200},
		{"queries body over cap", "POST", "/v1/queries", pad(query, maxRequestBody+1), 413},
		{"queries body under cap", "POST", "/v1/queries", pad(query, maxRequestBody), 200},
		{"configs normal body", "POST", "/v1/configs", string(set), 200},
		{"audit without journal", "GET", "/v1/audit", "", 200},
		{"audit bad limit", "GET", "/v1/audit?limit=nope", "", 400},
		{"trace list without store", "GET", "/debug/traces", "", 200},
		{"trace get unknown", "GET", "/debug/traces/r000042", "", 404},
		{"trace post rejected", "POST", "/debug/traces", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				raw, _ := io.ReadAll(resp.Body)
				t.Fatalf("%s %s: status %d, want %d (body %s)",
					tc.method, tc.path, resp.StatusCode, tc.wantStatus, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
				t.Fatalf("%s %s: Content-Type %q", tc.method, tc.path, ct)
			}
			var body any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("%s %s: response is not JSON: %v", tc.method, tc.path, err)
			}
			if tc.wantStatus >= 400 {
				if _, ok := body.(map[string]any)["error"]; !ok {
					t.Fatalf("%s %s: error response lacks error field: %v", tc.method, tc.path, body)
				}
			}
		})
	}
}

// TestServeAuditAndTraces drives a delta sequence on a fully instrumented
// server and checks the audit journal and per-request trace store.
func TestServeAuditAndTraces(t *testing.T) {
	ts, texts, opts := bootObsServer(t)

	// dp delta (epoch 2), then shards delta (epoch 3).
	edited := strings.Replace(texts["agg-0-0"], "description link to", "description uplink to", 1)
	postJSON(t, ts.URL+"/v1/configs",
		map[string]any{"set": map[string]string{"agg-0-0": edited}}, 200)
	postJSON(t, ts.URL+"/v1/verify", map[string]any{}, 200)
	var netLine string
	for _, line := range strings.Split(texts["edge-1-0"], "\n") {
		if strings.HasPrefix(line, " network ") {
			netLine = line
			break
		}
	}
	withdrawn := strings.Replace(texts["edge-1-0"], netLine+"\n", "", 1)
	postJSON(t, ts.URL+"/v1/configs",
		map[string]any{"set": map[string]string{"edge-1-0": withdrawn}}, 200)
	postJSON(t, ts.URL+"/v1/verify", map[string]any{}, 200)
	// Restore the origination: the re-announced prefix's dependency closure
	// is re-simulated, so this delta runs a non-empty strict shard subset
	// (the withdrawal itself only purges — 0 dirty shards).
	postJSON(t, ts.URL+"/v1/configs",
		map[string]any{"set": map[string]string{"edge-1-0": texts["edge-1-0"]}}, 200)
	postJSON(t, ts.URL+"/v1/verify", map[string]any{}, 200)

	// Audit journal: one ok entry per verify, classes and plans recorded,
	// the restore entry names the shards that ran.
	audit := getJSON(t, ts.URL+"/v1/audit", 200)
	entries, _ := audit["entries"].([]any)
	if len(entries) != 3 {
		t.Fatalf("audit entries = %d, want 3 (%v)", len(entries), audit)
	}
	first := entries[0].(map[string]any)
	if first["epoch"].(float64) != 2 || first["class"] != "dp" || first["mode"] != "dp" {
		t.Fatalf("first audit entry: %v", first)
	}
	if first["outcome"] != "ok" || first["seconds"].(float64) <= 0 {
		t.Fatalf("first audit entry outcome: %v", first)
	}
	restore := entries[2].(map[string]any)
	if restore["epoch"].(float64) != 4 || restore["class"] != "orig" || restore["mode"] != "shards" {
		t.Fatalf("restore audit entry: %v", restore)
	}
	dirty, _ := restore["dirty_shards"].([]any)
	if len(dirty) == 0 || restore["dirty_count"].(float64) != float64(len(dirty)) {
		t.Fatalf("restore entry dirty set: %v", restore)
	}
	if restore["dirty_count"].(float64) >= restore["total_shards"].(float64) {
		t.Fatalf("restore entry re-ran everything: %v", restore)
	}
	if stages, _ := restore["stage_seconds"].(map[string]any); len(stages) == 0 {
		t.Fatalf("restore entry has no stage timings: %v", restore)
	}
	if restore["request_id"] == "" {
		t.Fatalf("audit entry lacks request id: %v", restore)
	}

	// A failed verify is audited too.
	postJSON(t, ts.URL+"/v1/configs",
		map[string]any{"set": map[string]string{"edge-0-0": "hostname edge-0-0\ninterface"}}, 200)
	postJSON(t, ts.URL+"/v1/verify", map[string]any{}, http.StatusUnprocessableEntity)
	last := opts.Audit.Last()
	if last == nil || last.Outcome != "error" || last.Error == "" {
		t.Fatalf("failed verify not audited: %+v", last)
	}

	// Trace store: every verify (including the failed one) left a trace
	// named after the request; newest first.
	list := getJSON(t, ts.URL+"/debug/traces", 200)
	traces, _ := list["traces"].([]any)
	if len(traces) == 0 {
		t.Fatalf("no traces stored: %v", list)
	}
	var verifyTrace map[string]any
	for _, raw := range traces {
		tr := raw.(map[string]any)
		if tr["name"] == "POST /v1/verify" && tr["error"] == false {
			verifyTrace = tr
			break
		}
	}
	if verifyTrace == nil {
		t.Fatalf("no successful verify trace in %v", list)
	}

	// The trace body is Chrome trace JSON whose span names include the
	// controller-side RPC spans and the worker-side phase spans.
	resp, err := http.Get(ts.URL + "/debug/traces/" + verifyTrace["id"].(string))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace fetch: %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace is not Chrome JSON: %v", err)
	}
	var sawRoot, sawRPC, sawWorkerPhase bool
	for _, e := range chrome.TraceEvents {
		switch {
		case e.Name == "POST /v1/verify":
			sawRoot = true
		case strings.HasPrefix(e.Name, "rpc:"):
			sawRPC = true
		case e.PID >= 1 && (e.Name == "apply-delta" || e.Name == "compute-dp" ||
			e.Name == "gather-bgp" || e.Name == "apply-bgp"):
			sawWorkerPhase = true
		}
	}
	if !sawRoot || !sawRPC || !sawWorkerPhase {
		t.Fatalf("verify trace incomplete: root=%v rpc=%v workerPhase=%v (%d events)",
			sawRoot, sawRPC, sawWorkerPhase, len(chrome.TraceEvents))
	}

	// Status surfaces the audit and trace summary.
	st := getJSON(t, ts.URL+"/v1/status", 200)
	if st["audit_entries"].(float64) != 4 {
		t.Fatalf("status audit summary: %v", st)
	}
	if st["traces"].(map[string]any)["stored"].(float64) == 0 {
		t.Fatalf("status trace summary: %v", st)
	}
}

// TestServeMetricsSurface checks the serving-layer metric series: staged
// gauge transitions, RED counters, and the delta-plan counter.
func TestServeMetricsSurface(t *testing.T) {
	ts, texts, _ := bootObsServer(t)

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	edited := strings.Replace(texts["agg-0-0"], "description link to", "description uplink to", 1)
	postJSON(t, ts.URL+"/v1/configs",
		map[string]any{"set": map[string]string{"agg-0-0": edited}}, 200)
	if m := scrape(); !strings.Contains(m, "s2_staged_configs 1") {
		t.Fatalf("staged gauge after staging:\n%s", m)
	}
	postJSON(t, ts.URL+"/v1/verify", map[string]any{}, 200)

	m := scrape()
	for _, want := range []string{
		"s2_staged_configs 0",
		`s2_delta_plan_total{class="dp"} 1`,
		`s2_http_requests_total{path="/v1/verify",method="POST",code="200"} 1`,
		`s2_http_requests_total{path="/v1/configs",method="POST",code="200"} 1`,
		`s2_verify_seconds_count{class="dp"} 1`,
		`s2_resident_memory_bytes{kind="watermark"}`,
		"s2_epoch_age_seconds",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

func TestServeBatchQueries(t *testing.T) {
	ts, _ := bootServer(t)
	queries := []map[string]any{
		{"dst_prefix": "10.128.64.0/24", "sources": []string{"edge-0-0"}, "dests": []string{"edge-0-1"}},
		{"dst_prefix": "10.128.0.0/24", "dests": []string{"edge-0-0"}},
		{"dst_prefix": "10.128.64.0/24", "sources": []string{"edge-0-0"}, "dests": []string{"edge-0-1"}}, // duplicate of #0
	}
	body := postJSON(t, ts.URL+"/v1/queries", map[string]any{"queries": queries}, 200)
	if got := body["count"].(float64); got != 3 {
		t.Fatalf("count = %v", got)
	}
	if body["epoch"].(float64) < 1 {
		t.Fatalf("epoch = %v", body["epoch"])
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, raw := range results {
		res := raw.(map[string]any)
		if res["ok"] != true {
			t.Errorf("result %d: %v", i, res)
		}
		if res["epoch"] != body["epoch"] {
			t.Errorf("result %d: epoch %v != batch epoch %v", i, res["epoch"], body["epoch"])
		}
	}
	// Duplicate queries must agree exactly.
	if a, b := fmt.Sprint(results[0]), fmt.Sprint(results[2]); a != b {
		t.Errorf("duplicate queries answered differently:\n%s\n%s", a, b)
	}

	// Malformed inputs.
	postJSON(t, ts.URL+"/v1/queries", map[string]any{"queries": []any{}}, 400)
	postJSON(t, ts.URL+"/v1/queries",
		map[string]any{"queries": []map[string]any{{"dst_prefix": "bogus"}}}, 400)
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
}

// TestServeAllPairsSingleFlight fires a burst of cold all-pairs reads and
// checks that exactly one symbolic pass served them all: one flight
// computes, the rest wait and share, repeats hit the per-epoch cache.
func TestServeAllPairsSingleFlight(t *testing.T) {
	ts, _, sopts := bootObsServer(t)
	before := sopts.Registry.Snapshot()[core.MetricQueryPasses]

	const burst = 8
	var wg sync.WaitGroup
	epochs := make([]float64, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/queries?type=allpairs")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != 200 || body["ok"] != true {
				t.Errorf("allpairs %d: status %d body %v", i, resp.StatusCode, body)
				return
			}
			epochs[i] = body["epoch"].(float64)
		}(i)
	}
	wg.Wait()
	for i := 1; i < burst; i++ {
		if epochs[i] != epochs[0] {
			t.Fatalf("epoch drift across burst: %v", epochs)
		}
	}
	after := sopts.Registry.Snapshot()[core.MetricQueryPasses]
	if got := after - before; got != 1 {
		t.Fatalf("%v passes for a %d-wide cold burst, want exactly 1", got, burst)
	}
	// Warm repeat: no new pass at all.
	getJSON(t, ts.URL+"/v1/queries?type=allpairs", 200)
	if got := sopts.Registry.Snapshot()[core.MetricQueryPasses]; got != after {
		t.Fatalf("warm all-pairs repeat ran %v extra passes", got-after)
	}
}

// TestServeWarmReadsRunConcurrently mixes every warm read kind and batch
// posts in flight at once; all must succeed against the shared verifier.
func TestServeWarmReadsRunConcurrently(t *testing.T) {
	ts, _ := bootServer(t)
	urls := []string{
		ts.URL + "/v1/queries?type=allpairs",
		ts.URL + "/v1/queries?type=ribs&device=edge-0-0",
		ts.URL + "/v1/queries?type=routecount",
		ts.URL + "/v1/epoch",
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, u := range urls {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				resp, err := http.Get(u)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s: %d", u, resp.StatusCode)
				}
			}(u)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, _ := json.Marshal(map[string]any{"queries": []map[string]any{
				{"dst_prefix": "10.128.0.0/24", "dests": []string{"edge-0-0"}},
			}})
			resp, err := http.Post(ts.URL+"/v1/queries", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("POST /v1/queries: %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
}
