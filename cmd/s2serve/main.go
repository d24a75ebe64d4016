// Command s2serve is the verification-as-a-service daemon: it boots the
// distributed pipeline once over a directory of device configurations,
// keeps the converged per-worker state resident, and serves an HTTP/JSON
// API for staging config deltas (POST /v1/configs), incremental
// re-verification (POST /v1/verify), warm queries (GET /v1/queries), and
// batched reachability queries (POST /v1/queries) answered through the
// coalescing, epoch-cached, intent-sliced query plane.
//
// Serving-mode telemetry rides along: per-request traces (GET
// /debug/traces), a delta audit journal (GET /v1/audit, -audit-log),
// structured logs (-log-level, -log-json), and RED metrics on /metrics.
//
// Usage:
//
//	s2serve -configs DIR [-addr :8642] [-workers N] [-shards M]
//	        [-workers-at host:port,...] [-procs N] [-seed S]
//	        [-recover] [-heartbeat-interval D] [-v]
//	        [-no-query-slicing] [-no-query-cache]
//	        [-log-level info] [-log-json] [-audit-log FILE]
//	        [-audit-size N] [-trace-store N] [-trace-slowest N]
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"s2"
	"s2/internal/obs"
	"s2/internal/serve"
)

func main() {
	var (
		configs    = flag.String("configs", "", "directory of *.cfg device configurations (required)")
		addr       = flag.String("addr", ":8642", "HTTP listen address for the API (and /metrics)")
		workers    = flag.Int("workers", 4, "number of in-process workers")
		workerAddr = flag.String("workers-at", "", "comma-separated sidecar addresses of remote workers (overrides -workers)")
		shards     = flag.Int("shards", 1, "prefix shard count (>1 enables sharding and incremental shard reuse)")
		scheme     = flag.String("scheme", "metis", "partition scheme: metis|random|expert|imbalanced|commheavy")
		seed       = flag.Int64("seed", 1, "seed for partitioning and shard shuffling")
		procs      = flag.Int("procs", 0, "per-worker goroutine pool for the simulation phases (0 = all CPUs)")
		rpcTimeout = flag.Duration("rpc-timeout", 0, "deadline per worker RPC attempt (0 = none)")
		retries    = flag.Int("retries", 0, "extra attempts for idempotent worker RPCs that fail transiently")
		heartbeat  = flag.Duration("heartbeat-interval", 0, "worker heartbeat interval (0 = off)")
		recoverOn  = flag.Bool("recover", false, "on worker death, re-partition onto survivors and re-verify")
		noSlicing  = flag.Bool("no-query-slicing", false, "involve every worker in each query pass instead of only the reachable slice")
		noQCache   = flag.Bool("no-query-cache", false, "disable the epoch-keyed query answer cache")
		verbose    = flag.Bool("v", false, "log the boot verification summary")

		logLevel  = flag.String("log-level", "info", "structured log level: debug|info|warn|error|off")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON lines (default: logfmt-style text)")
		auditLog  = flag.String("audit-log", "", "append every audit entry as a JSON line to this file")
		auditSize = flag.Int("audit-size", 1024, "audit entries kept in memory for /v1/audit")
		traceCap  = flag.Int("trace-store", 512, "per-request traces kept for /debug/traces (0 disables tracing)")
		traceSlow = flag.Int("trace-slowest", 16, "slowest traces always retained by eviction")

		history      = flag.Int("history", 512, "fleet health samples kept per series for /debug/dashboard (0 disables the history plane)")
		historyEvery = flag.Duration("history-interval", 0, "fleet sampling cadence (0 = heartbeat interval, else 5s)")
		profileCap   = flag.Int("profile-store", 32, "harvested worker pprof profiles kept for /debug/profiles (0 disables)")
		profileEvery = flag.Duration("profile-interval", 0, "periodic heap-profile harvest cadence (0 = 60s default, negative disables)")
		slowWorker   = flag.Int("slow-worker", -1, "inject a persistent per-call delay on this worker's phase RPCs (straggler experiment; -1 = off)")
		slowDelay    = flag.Duration("slow-worker-delay", 20*time.Millisecond, "per-call delay for -slow-worker")
	)
	flag.Parse()
	if *configs == "" {
		flag.Usage()
		os.Exit(2)
	}

	level, err := obs.ParseLogLevel(*logLevel)
	fatal(err)
	logger := obs.NewLogger(os.Stderr, level, *logJSON)

	network, err := s2.LoadDirectory(*configs)
	fatal(err)
	logger.Info("configs parsed", obs.FInt("devices", network.Size()), obs.FStr("dir", *configs))

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceCap > 0 {
		tracer = obs.NewTracer()
	}
	opts := s2.Options{
		Workers:             *workers,
		PartitionScheme:     *scheme,
		Shards:              *shards,
		Seed:                *seed,
		KeepRIBs:            true, // RIB queries are part of the API surface
		Parallelism:         *procs,
		RPCTimeout:          *rpcTimeout,
		RPCRetries:          *retries,
		HeartbeatInterval:   *heartbeat,
		Recover:             *recoverOn,
		DisableQuerySlicing: *noSlicing,
		DisableQueryCache:   *noQCache,
		Metrics:             reg,
		Tracer:              tracer,
		Logger:              logger,
		HistorySamples:      *history,
		HistoryInterval:     *historyEvery,
		ProfileCapacity:     *profileCap,
		ProfileInterval:     *profileEvery,
	}
	if *slowWorker >= 0 {
		opts.SlowWorker = *slowWorker
		opts.SlowWorkerDelay = *slowDelay
	}
	if *workerAddr != "" {
		opts.WorkerAddrs = strings.Split(*workerAddr, ",")
	}
	v, err := s2.NewVerifier(network, opts)
	fatal(err)
	defer v.Close()
	for _, warn := range v.TopologyWarnings() {
		logger.Warn("topology warning", obs.FStr("warning", warn))
	}

	var auditSink *os.File
	if *auditLog != "" {
		auditSink, err = os.OpenFile(*auditLog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		fatal(err)
		defer auditSink.Close()
	}
	var journal *serve.Journal
	if auditSink != nil {
		journal = serve.NewJournal(*auditSize, auditSink)
	} else {
		journal = serve.NewJournal(*auditSize, nil)
	}

	// Boot verification: converge once so every query after startup is warm.
	start := time.Now()
	warnings, err := v.ComputeDataPlane()
	fatal(err)
	report, err := v.CheckAllPairs()
	fatal(err)
	bootTook := time.Since(start)
	logger.Info("boot verification done",
		obs.FDur("took", bootTook.Round(time.Millisecond)),
		obs.FUint64("epoch", v.Epoch()),
		obs.FInt("shards", v.ShardCount()))
	if *verbose {
		for _, warn := range warnings {
			logger.Warn("FIB warning", obs.FStr("warning", warn))
		}
		fmt.Println(report)
	}

	// The boot run is the journal's first entry: every shard ran.
	bootShards := make([]int, v.ShardCount())
	for i := range bootShards {
		bootShards[i] = i
	}
	journal.Record(serve.AuditEntry{
		Epoch:       v.Epoch(),
		Time:        time.Now(),
		Class:       "boot",
		Mode:        "boot",
		DirtyShards: bootShards,
		DirtyCount:  v.ShardCount(),
		TotalShards: v.ShardCount(),
		Seconds:     bootTook.Seconds(),
		Outcome:     "ok",
	})

	// SIGQUIT dumps the flight recorder and keeps serving.
	flight := v.FlightRecorder()
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "s2serve: SIGQUIT — flight recorder dump:")
			flight.WriteTo(os.Stderr)
		}
	}()

	lis, err := net.Listen("tcp", *addr)
	fatal(err)
	srv := serve.New(v, serve.Options{
		Registry:         reg,
		Tracer:           tracer,
		TraceCapacity:    *traceCap,
		TraceKeepSlowest: *traceSlow,
		Logger:           logger,
		Audit:            journal,
	})
	fmt.Printf("s2serve: serving on http://%s\n", lis.Addr())

	// SIGINT/SIGTERM shut down cleanly (Close tears down workers).
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: obs.ReadHeaderTimeout}
	go func() {
		<-stop
		logger.Info("shutting down")
		httpSrv.Close()
	}()
	if err := httpSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2serve:", err)
		os.Exit(1)
	}
}
