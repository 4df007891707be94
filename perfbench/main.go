// Command perfbench is the repository's pipeline benchmark: a seeded
// INT report stream is fed open loop into core.Live the way a
// collector does, and report-in → verdict-out throughput, latency,
// CPU, memory and accuracy are measured at the pipeline's output. With
// -trace 1 it instead reports per-layer costs from a traced,
// single-threaded replay of the same stream beside traced and
// observability-off live runs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// workload is one input mix and the pipeline settings it runs under;
// everything else is core.LiveConfig defaults.
type workload struct {
	name  string
	order order
	// churn moves every pass over the capture to fresh flows.
	churn bool
	// idleTimeout enables flow eviction (FlowIdleTimeout).
	idleTimeout bool
	// checkpoint has the benchmark write checkpoints during the stream
	// and measures set-up as a cold restart from them.
	checkpoint bool
}

var workloads = []workload{
	{name: "steady-benign", order: mixCycled},
	{name: "flood-churn", order: poolOrder, churn: true, idleTimeout: true},
	{name: "checkpoint-restart", order: mixCycled, churn: true, checkpoint: true},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The result line's metric names: every end-to-end metric without
// --trace, every per-layer metric with it. BENCHMARK.json lists the
// same names.
var (
	endToEndMetrics = []string{
		"setup_s", "sustained_rps", "latency_p50_ms", "accuracy",
		"cpu_us_per_report", "heap_growth_mb",
	}
	perLayerMetrics = []string{
		"telemetry.decode_ns", "telemetry.decode_allocs", "flow.observe_ns",
		"flow.insert_ratio", "flow.resident_flows", "flow.sweep_ms",
		"store.upsert_ns", "store.poll_ns_per_record",
		"store.trim_ns_per_record", "store.journal_len_p99",
		"store.append_prediction_ns", "store.predictions_logged",
		"ml.scale_ns_per_row", "ml.mlp_ns_per_row", "ml.rf_ns_per_row",
		"ml.gnb_ns_per_row", "ml.vote_ns_per_row",
		"core.handle_report_ns_p50", "core.handle_report_ns_p99",
		"core.ingest_backlog_p99", "core.records_per_poll",
		"core.shed_ratio", "core.overhead_us_per_report",
		"checkpoint.barrier_ms_p99", "checkpoint.write_ms",
		"checkpoint.bytes", "checkpoint.restore_s", "obs.overhead_ratio",
		"go.gc_cpu_fraction", "go.alloc_bytes_per_report", "gen.late_ms_p99",
		"trace.overhead_us_per_report",
	}
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and the human-readable notes printed above
// the result line.
type report struct {
	metrics map[string]metric
	notes   []string
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "steady-benign", "workload: "+workloadList())
	seed := flag.Int64("seed", 42, "workload seed: where the walk through the fixed capture starts and which slots carry attack reports")
	seconds := flag.Int("seconds", 12, "length of the fixed-rate window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	dir := flag.String("dir", ".bench_build/perfbench.d", "directory for saved ensembles, checkpoints and span dumps")
	flag.Parse()

	w, ok := workloadNamed(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in {%s}, -seconds >= 1, -trace 0 or 1\n", workloadList())
		os.Exit(2)
	}
	// Use every CPU the machine has, and say how many that was.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, dir: *dir,
		rep: report{metrics: map[string]metric{}}}
	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	want := endToEndMetrics
	if *trace == 1 {
		want = perLayerMetrics
	}
	if err == nil {
		err = sameNames(res.Metrics, want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.print(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// sameNames fails unless got has exactly the metrics named in want.
func sameNames(got map[string]metric, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d metrics, want %d", len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			return fmt.Errorf("result lacks metric %q", n)
		}
	}
	return nil
}

func workloadList() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// print writes the notes, a metric table and, last, the JSON result.
func (b *bench) print(res result) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		b.w.name, b.seed, b.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range b.rep.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(b.rep.metrics))
	for n := range b.rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.rep.metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-34s %14d of %d attempted\n", "failed", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
