package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// ReadHeaderTimeout bounds how long the HTTP servers of every binary wait
// for a client's request headers, so a slow or stalled client cannot hold
// a connection open indefinitely.
const ReadHeaderTimeout = 10 * time.Second

// ServerOptions wires the introspection endpoints. Nil fields disable the
// corresponding endpoint body (the route still answers, with a minimal
// payload, so probes never 404 on a healthy process).
type ServerOptions struct {
	// Registry backs GET /metrics (Prometheus text exposition format).
	Registry *Registry
	// Health backs GET /healthz: any JSON-serializable snapshot (worker
	// liveness, heartbeat view). Nil reports {"status":"ok"} only.
	Health func() any
	// Progress backs GET /progress: a JSON run-status snapshot (current
	// stage, shard, iteration, routes settled).
	Progress func() any
	// Flight backs GET /debug/flightrecorder: the process's always-on
	// event ring, newest last. Nil serves an empty list.
	Flight *FlightRecorder
	// Dashboard backs GET /debug/dashboard (live HTML + SSE fleet view).
	Dashboard *Dashboard
	// Profiles backs GET /debug/profiles and /debug/profiles/<id>: the
	// bounded ring of harvested pprof protos.
	Profiles *ProfileStore
	// ProfilePull backs POST /debug/profile?worker=N&kind=cpu|heap — the
	// on-demand harvest trigger. Nil answers 501.
	ProfilePull ProfilePullFunc
}

// ProfilePullFunc harvests one profile from worker and stores it,
// returning the stored record.
type ProfilePullFunc func(worker int, kind string, seconds int) (*Profile, error)

// HTTPServer is a live introspection listener.
type HTTPServer struct {
	srv *http.Server
	lis net.Listener
}

// Addr returns the bound listen address (useful with ":0").
func (s *HTTPServer) Addr() string { return s.lis.Addr().String() }

// Close shuts the listener down immediately.
func (s *HTTPServer) Close() error { return s.srv.Close() }

// ServeIntrospection binds addr and serves /metrics, /healthz, /progress,
// and /debug/pprof/* in a background goroutine until Close. This is the
// body of the -obs-addr flag on cmd/s2 and cmd/s2worker.
func ServeIntrospection(addr string, opts ServerOptions) (*HTTPServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		body := map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(start).Seconds(),
		}
		if opts.Health != nil {
			body["detail"] = opts.Health()
		}
		writeJSON(w, body)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Progress == nil {
			writeJSON(w, map[string]any{})
			return
		}
		writeJSON(w, opts.Progress())
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
		events := opts.Flight.Events()
		if events == nil {
			events = []FlightEvent{}
		}
		writeJSON(w, map[string]any{
			"total":  opts.Flight.Total(),
			"events": events,
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	RegisterFleetHandlers(mux, opts.Dashboard, opts.Profiles, opts.ProfilePull)

	s := &HTTPServer{srv: &http.Server{Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout}, lis: lis}
	go s.srv.Serve(lis)
	return s, nil
}

// RegisterFleetHandlers wires the fleet-health debug routes — the live
// dashboard, the on-demand profile harvest trigger, and the stored-profile
// ring — onto mux. Shared by the -obs-addr introspection server and
// s2serve's API mux so both debug surfaces behave identically. All
// arguments may be nil; disabled routes answer 404/501, never panic.
func RegisterFleetHandlers(mux *http.ServeMux, dash *Dashboard, store *ProfileStore, pull ProfilePullFunc) {
	mux.Handle("/debug/dashboard", dash)
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST /debug/profile?worker=N&kind=cpu|heap&seconds=S", http.StatusMethodNotAllowed)
			return
		}
		if pull == nil {
			http.Error(w, "profile harvest disabled", http.StatusNotImplemented)
			return
		}
		q := r.URL.Query()
		worker, err := strconv.Atoi(q.Get("worker"))
		if err != nil || worker < 0 {
			http.Error(w, "worker: non-negative integer required", http.StatusBadRequest)
			return
		}
		kind := q.Get("kind")
		if kind == "" {
			kind = "cpu"
		}
		seconds, _ := strconv.Atoi(q.Get("seconds"))
		p, err := pull(worker, kind, seconds)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		writeJSON(w, p)
	})
	mux.HandleFunc("/debug/profiles", func(w http.ResponseWriter, _ *http.Request) {
		list := store.Profiles()
		if list == nil {
			list = []*Profile{}
		}
		writeJSON(w, map[string]any{"profiles": list})
	})
	mux.HandleFunc("/debug/profiles/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/profiles/")
		p := store.Get(id)
		if p == nil {
			http.Error(w, "no such profile", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%s-worker%d-%s.pb.gz", p.ID, p.Worker, p.Kind))
		_, _ = w.Write(p.Data)
	})
}

func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(body)
}
