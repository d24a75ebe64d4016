package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"s2"
)

const (
	// maxConns is the client's connection limit to the daemon.
	maxConns = 2

	reqHeader  = "X-Perfbench-Req"
	spanHeader = "X-Perfbench-Span"
)

// daemon serves a verifier's s2serve HTTP API (serve.Server.Handler) on a
// loopback test server. The handler can be swapped, so one listener
// outlives the verifiers it fronts. A request that names a client span in
// its headers is recorded as a span around the handler, parented to it.
type daemon struct {
	ts     *httptest.Server
	client *http.Client
	tr     *tracer

	mu sync.RWMutex
	h  http.Handler
}

func startDaemon(tr *tracer) *daemon {
	d := &daemon{tr: tr, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}}}
	d.ts = httptest.NewServer(d)
	return d
}

// serve makes h answer every later request.
func (d *daemon) serve(h http.Handler) {
	d.mu.Lock()
	d.h = h
	d.mu.Unlock()
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.RLock()
	h := d.h
	d.mu.RUnlock()
	t0 := time.Now()
	h.ServeHTTP(w, r)
	if parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64); parent != 0 {
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		d.tr.record("serve."+r.URL.Path, parent, req, t0, time.Now())
	}
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
}

// call sends one request and decodes a 200 reply into out. req and span
// identify the client span for the handler's span.
func (d *daemon) call(method, path string, body, out any, req, span uint64) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	hr, err := http.NewRequest(method, d.ts.URL+path, rd)
	if err != nil {
		return err
	}
	hr.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	hr.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	resp, err := d.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

type wireQuery struct {
	DstPrefix string   `json:"dst_prefix,omitempty"`
	SrcPrefix string   `json:"src_prefix,omitempty"`
	Protocol  uint8    `json:"protocol,omitempty"`
	DstPort   uint16   `json:"dst_port,omitempty"`
	Sources   []string `json:"sources,omitempty"`
	Dests     []string `json:"dests,omitempty"`
}

type queryResult struct {
	Epoch      uint64         `json:"epoch"`
	Reached    []string       `json:"reached"`
	Violations []s2.Violation `json:"violations"`
}

// query asks queries[idx...] in one POST /v1/queries and returns the
// reply's epoch and per-query results, positionally.
func (d *daemon) query(queries []s2.Query, idx []int, req, span uint64) (uint64, []queryResult, error) {
	body := struct {
		Queries []wireQuery `json:"queries"`
	}{}
	for _, k := range idx {
		q := queries[k]
		body.Queries = append(body.Queries, wireQuery{DstPrefix: q.DstPrefix, SrcPrefix: q.SrcPrefix,
			Protocol: q.Protocol, DstPort: q.DstPort, Sources: q.Sources, Dests: q.Dests})
	}
	var reply struct {
		Epoch   uint64        `json:"epoch"`
		Results []queryResult `json:"results"`
	}
	if err := d.call(http.MethodPost, "/v1/queries", body, &reply, req, span); err != nil {
		return 0, nil, err
	}
	if len(reply.Results) != len(idx) {
		return 0, nil, fmt.Errorf("/v1/queries: %d results for %d queries", len(reply.Results), len(idx))
	}
	return reply.Epoch, reply.Results, nil
}

// delta replaces one device's config with POST /v1/configs and verifies
// it with POST /v1/verify.
func (d *daemon) delta(device, text string, req, span uint64) (*s2.DeltaReport, error) {
	var staged map[string]any
	if err := d.call(http.MethodPost, "/v1/configs",
		map[string]any{"set": map[string]string{device: text}}, &staged, req, span); err != nil {
		return nil, err
	}
	var rep s2.DeltaReport
	if err := d.call(http.MethodPost, "/v1/verify", map[string]any{}, &rep, req, span); err != nil {
		return nil, err
	}
	return &rep, nil
}

// handlerMetrics derives per-path handler times and the client's own
// overhead on reads — a read span's self time, its round trip minus the
// handler span inside it — from the spans.
func handlerMetrics(res *result, spans []span) {
	self := selfTimes(spans)
	byPath := map[string][]time.Duration{}
	served := map[uint64]bool{} // client spans with a handler span inside
	for _, s := range spans {
		switch s.Name {
		case "serve./v1/queries", "serve./v1/verify", "serve./v1/configs":
			byPath[s.Name] = append(byPath[s.Name], s.dur())
			served[s.Parent] = true
		}
	}
	var overhead []time.Duration
	for _, s := range spans {
		if s.Name == "client.read" && served[s.ID] {
			overhead = append(overhead, self[s.ID])
		}
	}
	for path, metric := range map[string]string{
		"serve./v1/queries": "serve.queries_handler_ms",
		"serve./v1/verify":  "serve.verify_handler_ms",
		"serve./v1/configs": "serve.configs_handler_ms",
	} {
		xs := millis(byPath[path])
		res.set(metric, median(xs), len(xs))
	}
	xs := millis(overhead)
	res.set("serve.client_overhead_ms", median(xs), len(xs))
}
