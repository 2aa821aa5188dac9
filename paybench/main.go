// Command paybench is the repository's payment benchmark. It runs one
// seeded workload against the real validator stack — three herder.Nodes
// in one process, each on its own transport.Loop and Manager, joined by
// authenticated loopback TCP — checks the outcome, and prints the
// workload's end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as the last line of standard output:
//
//	go run . --workload pay --seed 1 --seconds 20 --trace 0
//
// Workloads: pay (full-ledger capacity, then confirmation latency at ~60%
// load, in two child processes of this program), pay-hot (same-source
// transaction chains) and catchup (a cold node restoring from a history
// archive). README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees. Each workload
// fills every one; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"latency_p50_s", "s"},
	{"ledger_s", "s"},
	{"throughput_tx_per_s", "tx/s"},
	{"heap_peak_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's figures, one group per module. A layer
// a workload does not exercise reports 0 with a sample count of 0.
var perLayer = []metricDef{
	{"herder.trigger_ms_p50", "ms"},
	{"herder.trigger_ms_p99", "ms"},
	{"herder.close_ms_p50", "ms"},
	{"herder.close_ms_p99", "ms"},
	{"herder.replay_ms_p50", "ms"},
	{"herder.loop_busy_ratio", "ratio"},
	{"herder.admit_wait_ms_p50", "ms"},
	{"herder.admit_wait_ms_p99", "ms"},
	{"herder.admit_us_p50", "us"},
	{"herder.slow_closes", "count"},
	{"scp.timeouts_per_ledger", "count"},
	{"scp.nomination_rounds_per_ledger", "count"},
	{"scp.envelopes_per_ledger", "count"},
	{"scp.nomination_ms_p50", "ms"},
	{"scp.balloting_ms_p50", "ms"},
	{"mempool.pending_at_trigger_p50", "count"},
	{"mempool.selected_ratio", "ratio"},
	{"mempool.refused_pool_full", "count"},
	{"mempool.refused_source_cap", "count"},
	{"mempool.refused_seq_conflict", "count"},
	{"overlay.handle_us_p50", "us"},
	{"overlay.handle_us_p99", "us"},
	{"overlay.dupe_ratio", "ratio"},
	{"overlay.bytes_per_tx", "B"},
	{"transport.bytes_out_per_ledger", "B"},
	{"transport.queue_sheds", "count"},
	{"verify.cache_hit_ratio", "ratio"},
	{"verify.misses_per_tx", "count"},
	{"ledger.apply_ms_mean", "ms"},
	{"ledger.apply_us_per_tx", "us"},
	{"ledger.sig_prepass_ms_p50", "ms"},
	{"ledger.tx_apply_ms_p50", "ms"},
	{"ledger.parallel_tx_ratio", "ratio"},
	{"bucket.merge_ms_p50", "ms"},
	{"history.read_ms_per_ledger", "ms"},
	{"history.write_ms_p50", "ms"},
	{"gen.submit_applied_p99_s", "s"},
	{"gen.late_ms_p99", "ms"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"trace.spans", "count"},
}

// runConfig is one invocation.
type runConfig struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Seconds  int           `json:"seconds"`
	Traced   bool          `json:"traced"`
	WorkDir  string        `json:"-"`
	Measure  time.Duration `json:"-"`

	// Workload sizes, fixed for the benchmark; tests shrink them.
	Accounts       int     `json:"accounts"`        // funded genesis accounts
	CatchupLedgers int     `json:"catchup_ledgers"` // loaded ledgers past the checkpoint
	CatchupRate    float64 `json:"catchup_rate"`    // payments offered per simulated second
}

// benchConfig is the benchmark's fixed sizing.
func benchConfig(workload string, seed int64, secs int, traced bool, workdir string) runConfig {
	return runConfig{
		Workload: workload, Seed: seed, Seconds: secs, Traced: traced, WorkDir: workdir,
		Measure:  time.Duration(secs) * time.Second,
		Accounts: payAccounts, CatchupLedgers: catchupLedgers, CatchupRate: catchupRate,
	}
}

// outcome is what a workload hands back: metric values with their sample
// counts, the operation tally, and any correctness failures.
type outcome struct {
	values    map[string]float64
	counts    map[string]int
	attempted int
	failed    int
	errs      []string
	detail    map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, counts: map[string]int{}, detail: map[string]any{}}
}

// set records a metric with the number of samples behind it.
func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.counts[name] = n
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"pay":     func(c runConfig) (*outcome, error) { return runPay(c, false) },
	"pay-hot": func(c runConfig) (*outcome, error) { return runPay(c, true) },
	"catchup": runCatchup,
}

func main() {
	if req := os.Getenv(partEnv); req != "" {
		os.Exit(runPart(req))
	}
	workload := flag.String("workload", "pay", "workload: pay, pay-hot or catchup")
	seed := flag.Int64("seed", 1, "workload seed: derives sources, destinations and the catchup network")
	secs := flag.Int("seconds", 25, "seconds of measured load per run")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	workdir := flag.String("workdir", ".bench_build", "directory for archives and span files")
	commit := flag.String("commit", "unknown", "source revision, recorded in the result")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "paybench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *secs, *trace)
		os.Exit(2)
	}
	cfg := benchConfig(*workload, *seed, *secs, *trace == 1, *workdir)
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "paybench: %v\n", err)
		os.Exit(1)
	}
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paybench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "paybench: correctness: %s\n", e)
	}
	if err := report(os.Stdout, cfg, out, *commit); err != nil {
		fmt.Fprintf(os.Stderr, "paybench: %v\n", err)
		os.Exit(1)
	}
	if len(out.errs) > 0 {
		os.Exit(1)
	}
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report writes the run's record — configuration, host, sample counts,
// per-step detail and the end-to-end figures even of a traced run, whose
// difference from an untraced run is the tracing overhead — then the
// result line: the end-to-end metrics, or the per-layer ones for a traced
// run.
func report(w io.Writer, cfg runConfig, out *outcome, commit string) error {
	e2e := make(map[string]float64, len(endToEnd))
	for _, d := range endToEnd {
		e2e[d.name] = out.values[d.name]
	}
	record, err := json.Marshal(map[string]any{
		"run":        cfg,
		"host":       hostInfo(commit),
		"samples":    sortedCounts(out.counts),
		"end_to_end": e2e,
		"detail":     out.detail,
	})
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.Traced {
		defs = perLayer
	}
	res := result{Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: out.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", record, line)
	return err
}

// hostInfo is the environment a result depends on.
func hostInfo(commit string) map[string]any {
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"at":         time.Now().UTC().Format(time.RFC3339),
	}
}

func sortedCounts(m map[string]int) [][2]any {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][2]any, len(keys))
	for i, k := range keys {
		out[i] = [2]any{k, m[k]}
	}
	return out
}

// liveHeapMiB runs a full collection and returns the heap it left live:
// what the process retains at that moment. Heap occupancy sampled between
// collections also counts garbage, and moves with where the collector
// happened to run.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// gcClock reads the garbage collector's share of the process's CPU time
// since it started.
type gcClock struct{ gc0, all0 float64 }

func startGCClock() gcClock {
	gc, all := cpuSeconds()
	return gcClock{gc, all}
}

// since returns the GC's and the whole process's CPU seconds since start.
func (c gcClock) since() (gc, all float64) {
	gc, all = cpuSeconds()
	return gc - c.gc0, all - c.all0
}

func (c gcClock) ratio() float64 { return ratio(c.since()) }

func cpuSeconds() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		all = s[1].Value.Float64()
	}
	return gc, all
}
