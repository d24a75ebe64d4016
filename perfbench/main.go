// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks every answer against the monolithic baseline, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from spans and counters the
// benchmark records around calls into each package's public functions. A
// results file with sample counts and run metadata is written under -out.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload fattree8-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them: the cold workloads measure query and delta latency
// with a probe after each cold verification, and the serving workload's
// cold_verify_s is its boot verification.
var endToEnd = []metricDef{
	{"cold_verify_s", "s"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
	{"query_hit_p50_ms", "ms"},
	{"query_hit_p90_ms", "ms"},
	{"query_miss_p50_ms", "ms"},
	{"delta_p50_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	{"config.parse_ms", "ms"},
	{"topology.build_ms", "ms"},
	{"partition.metis_ms", "ms"},
	{"shard.plan_ms", "ms"},
	{"core.new_verifier_ms", "ms"},
	{"core.control_plane_ms", "ms"},
	{"core.control_plane.alloc_mb", "MB"},
	{"core.data_plane_ms", "ms"},
	{"core.data_plane.alloc_mb", "MB"},
	{"core.all_pairs_ms", "ms"},
	{"core.all_pairs.alloc_mb", "MB"},
	{"core.unattributed_ms", "ms"},
	{"harness.iteration_ms", "ms"},
	{"bgp.routes", "count"},
	{"bdd.nodes", "count"},
	{"core.model_peak_mb", "MB"},
	{"sidecar.route_pulls", "count"},
	{"sidecar.packets_in", "count"},
	{"sidecar.tcp_bytes", "bytes"},
	{"sidecar.tcp_conns", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.gc_pause_ms", "ms"},
	{"serve.queries_handler_ms", "ms"},
	{"serve.verify_handler_ms", "ms"},
	{"serve.configs_handler_ms", "ms"},
	{"serve.client_overhead_ms", "ms"},
	{"queryplane.passes", "count"},
	{"queryplane.cache_hit_ratio", "ratio"},
	{"queryplane.mean_batch_size", "count"},
	{"core.delta.dirty_shard_ratio", "ratio"},
	{"harness.trace_overhead_ratio", "ratio"},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// workloads are the benchmark's workloads. BENCHMARK.json lists the two
// cold ones. fattree8-serve-mixed runs and checks the same way, but on a
// 2-CPU host its delta_p50_ms and query_miss_p50_ms fall into two regimes
// (deltas of ~40ms in some runs, ~80ms in others), too far apart across
// seeds for a bound; it stays runnable by name.
var workloads = map[string]func(runConfig) (*result, error){
	"fattree8-cold": func(c runConfig) (*result, error) {
		return runCold(coldSpec{texts: fatTree8, workers: 4, shards: 8}, c)
	},
	"dcn-cold-tcp": func(c runConfig) (*result, error) {
		return runCold(coldSpec{texts: dcnDefaults, workers: 2, shards: 8, tcp: true}, c)
	},
	"fattree8-serve-mixed": runServe,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	commit   string
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// outPath names a per-run output file under the output directory.
func (c runConfig) outPath(suffix string) string {
	return filepath.Join(c.out, fmt.Sprintf("%s-seed%d-trace%d-%s", c.workload, c.seed, b2i(c.trace), suffix))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one run's metrics plus the operation tally behind error_rate.
type result struct {
	metrics map[string]metric
	tally   *tally
	extra   map[string]any
}

func newResult(t *tally) *result {
	return &result{metrics: map[string]metric{}, tally: t, extra: map[string]any{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples}
}

// latency sets <prefix>_p50_ms and, when withP90, <prefix>_p90_ms. A p90
// with fewer than ten samples beyond it is still reported but flagged in
// the results file.
func (r *result) latency(prefix string, ds []time.Duration, withP90 bool) {
	xs := millis(ds)
	r.set(prefix+"_p50_ms", median(xs), len(xs))
	if withP90 {
		r.set(prefix+"_p90_ms", percentile(xs, 0.9), len(xs))
		if !reportable(len(xs), 0.9) {
			r.extra[prefix+"_p90_below_sample_rule"] = true
		}
	}
}

func main() { os.Exit(run()) }

func run() int {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks the query mix, the delta target and the verifier seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for the results file, samples and spans")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the benchmarked tree, recorded in the results")
	flag.Parse()
	cfg.trace = trace == 1
	work, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := work(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		if _, ok := res.metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", cfg.workload, m.name)
			return 1
		}
	}
	if err := report(cfg, res, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// report prints the metric table, writes the results file and prints the
// one-line JSON summary last.
func report(cfg runConfig, res *result, defs []metricDef) error {
	attempted, failed := res.tally.counts()
	meta := runMetadata(cfg)
	fmt.Printf("workload %s  seed %d  trace %d  seconds %d\n", cfg.workload, cfg.seed, b2i(cfg.trace), cfg.seconds)
	fmt.Printf("host: nproc %d  GOMAXPROCS %d  %s  %s  commit %s\n",
		meta["nproc"], meta["gomaxprocs"], meta["go_version"], meta["cpu_model"], meta["commit"])
	for _, m := range defs {
		v := res.metrics[m.name]
		fmt.Printf("  %-32s %14.4f %-6s n=%d\n", m.name, v.Value, m.unit, v.Samples)
	}
	fmt.Printf("  %-32s %14.4f %-6s n=%d\n", "error_rate", res.tally.errorRate(), "ratio", attempted)
	reasons := res.tally.failures()
	for reason, n := range reasons {
		fmt.Printf("  failed x%d: %s\n", n, reason)
	}

	file := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"seconds":    cfg.seconds,
		"attempted":  attempted,
		"failed":     failed,
		"error_rate": res.tally.errorRate(),
		"failures":   reasons,
		"metrics":    res.metrics,
		"details":    res.extra,
		"meta":       meta,
	}
	if err := saveJSON(cfg.outPath("result.json"), file); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range defs {
		line.Metrics[m.name] = value{res.metrics[m.name].Value, m.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runMetadata records where and on what the run happened.
func runMetadata(cfg runConfig) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     cfg.commit,
		"seed":       cfg.seed,
		"transport":  "dcn-cold-tcp workers listen on 127.0.0.1: sidecar traffic crosses loopback, not a physical link",
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func saveJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
