// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload and prints its metrics; the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics. See README.md in this directory for the workloads, the metrics
// and what each layer metric is expected to move.
//
// Usage (normally through run.sh, which builds this binary and vitexd):
//
//	perfbench --workload portal_10k --seed 1 --seconds 10 --trace 0 \
//	    --vitexd BIN --work DIR --results DIR [--light N --heavy N --ladder A,B,... --p99-limit-ms N]
//	perfbench compare A.json B.json
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// benchmark spans and with vitexd tracing off. With --trace 1 the benchmark
// wraps every call into a layer in its own spans, runs vitexd with
// per-document stage tracing, and prints the per-layer metrics. Every run
// also writes its full record, host fingerprint included, to --results;
// compare diffs two such records and refuses records from different hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in the order BENCHMARK.json does.
// Every workload reports every one of them; README.md defines each per
// workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"mb_per_s", "MB/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"memory_mb", "MB"},
}

// perLayer lists the per-layer metrics in the order BENCHMARK.json does. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"xmlscan.mb_per_s", "MB/s"},
		{"xmlscan.ns_per_event", "ns"},
		{"xmlscan.events", "count"},
		{"compile.us_per_query", "us"},
		{"engine.live_machines", "count"},
		{"engine.trie_nodes", "count"},
		{"engine.anchored_machines", "count"},
		{"engine.route_ns_per_event", "ns"},
		{"engine.woken_per_event", "count"},
		{"engine.trie_pushes_per_event", "count"},
		{"engine.results_per_wake", "ratio"},
		{"engine.allocs_per_pass", "count"},
		{"engine.alloc_bytes_per_pass", "B"},
		{"engine.serialize_ns_per_result", "ns"},
		{"rung.scan_ms", "ms"},
		{"rung.engine_ms", "ms"},
		{"rung.serialize_ms", "ms"},
		{"rung.values_ms", "ms"},
	}
	for _, st := range serverStages {
		l = append(l,
			struct{ name, unit string }{"server." + st + ".p50_ms", "ms"},
			struct{ name, unit string }{"server." + st + ".p99_ms", "ms"})
	}
	l = append(l, []struct{ name, unit string }{
		{"server.queue_depth_max", "count"},
		{"server.refused", "count"},
		{"wal.bytes_per_doc", "B"},
		{"server.publish_to_delivery_p50_ms", "ms"},
		{"client.publish_rtt_ms", "ms"},
		{"client.decode_us_per_delivery", "us"},
		{"wire.bytes_per_result", "B"},
		{"wire.reads_per_delivery", "count"},
		{"loadgen.late_ms_max", "ms"},
		{"replay.docs_evaluated_per_resumer_doc", "ratio"},
		{"replay.woken_per_doc", "count"},
		{"replay.first_delivery_ms", "ms"},
	}...)
	for _, m := range endToEnd {
		l = append(l, struct{ name, unit string }{"traced." + m.name, m.unit})
	}
	return l
}()

// serverStages are the /debug/traces stages the traced run summarizes.
var serverStages = []string{
	"admission", "wal_append", "queue_wait", "scan_dispatch",
	"ring_enqueue", "deliver_wait", "wire_write",
}

// config is one run's command line.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	vitexd     string
	work       string
	results    string
	light      float64
	heavy      float64
	ladder     []float64
	p99LimitMs float64
}

// run is the record one invocation produces.
type run struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Errors      []string          `json:"errors,omitempty"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	Layers      map[string]metric `json:"per_layer,omitempty"`
	// Detail holds the workload's own figures that are not gated metrics
	// (per-phase latencies, sample counts, ladder steps), for the report.
	Detail map[string]metric `json:"detail,omitempty"`
}

func (r *run) e2e(name string, v float64) { r.EndToEnd[name] = metric{v, unitOf(endToEnd, name)} }

func (r *run) layer(name string, v float64) { r.Layers[name] = metric{v, unitOf(perLayer, name)} }

func (r *run) detail(name, unit string, v float64) { r.Detail[name] = metric{v, unit} }

// fail records a failed correctness check; the run then reports
// correct=false and exits non-zero.
func (r *run) fail(format string, args ...any) {
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

var workloads = map[string]func(*config, *run) error{
	"portal_10k":     runPortal,
	"protein_stream": runProtein,
	"ticker_feed":    runTicker,
	"resume_replay":  runReplay,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, out io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fn := workloads[cfg.workload]
	r := &run{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Fingerprint: hostFingerprint(),
		EndToEnd:    map[string]metric{}, Layers: map[string]metric{}, Detail: map[string]metric{},
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	err = fn(cfg, r)
	if rmErr := os.RemoveAll(cfg.work); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing work dir:", rmErr)
	}
	if err != nil {
		// An operational failure (a build, a daemon that would not start)
		// leaves no result to report.
		fmt.Fprintln(os.Stderr, "perfbench:", cfg.workload+":", err)
		return 1
	}
	for _, m := range endToEnd {
		if _, ok := r.EndToEnd[m.name]; !ok {
			r.fail("workload did not measure %s", m.name)
		}
	}
	if cfg.trace {
		for _, m := range endToEnd {
			r.layer("traced."+m.name, r.EndToEnd[m.name].Value)
		}
		for _, m := range perLayer {
			if _, ok := r.Layers[m.name]; !ok {
				r.Layers[m.name] = metric{0, m.unit}
			}
		}
	}
	if r.Attempted < 1 {
		r.fail("no operation attempted")
	}
	if len(r.Errors) > 0 && r.Failed == 0 {
		r.Failed = 1
	}
	if err := saveRun(cfg, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	printReport(out, r)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.Errors) == 0, r.Attempted, r.Failed, r.EndToEnd}
	if cfg.trace {
		line.Metrics = r.Layers
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	if len(r.Errors) > 0 {
		return 1
	}
	return 0
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{}
	var trace int
	var ladder string
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.vitexd, "vitexd", "", "vitexd binary (serving workloads)")
	fs.StringVar(&cfg.work, "work", "", "scratch directory for inputs and daemon data")
	fs.StringVar(&cfg.results, "results", "", "directory for the run record (empty = none)")
	fs.Float64Var(&cfg.light, "light", 0, "ticker_feed light publish rate, docs/s")
	fs.Float64Var(&cfg.heavy, "heavy", 0, "ticker_feed heavy publish rate, docs/s")
	fs.StringVar(&ladder, "ladder", "", "ticker_feed rate ladder, comma-separated docs/s")
	fs.Float64Var(&cfg.p99LimitMs, "p99-limit-ms", 0, "ticker_feed ladder latency limit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.work == "" {
		return nil, fmt.Errorf("--work is required")
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	cfg.work = work
	for _, f := range strings.Split(ladder, ",") {
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad --ladder rate %q", f)
		}
		cfg.ladder = append(cfg.ladder, v)
	}
	if !sort.Float64sAreSorted(cfg.ladder) {
		return nil, fmt.Errorf("--ladder must ascend")
	}
	return cfg, nil
}

func saveRun(cfg *config, r *run) error {
	if cfg.results == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.results, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if r.Trace {
		t = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, t)
	return os.WriteFile(filepath.Join(cfg.results, name), b, 0o644)
}

// printReport writes the human-readable lines that precede the result line.
func printReport(w io.Writer, r *run) {
	fp := r.Fingerprint
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s calibration_ns=%d\n",
		fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.CalibrationNs)
	section := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "# %-10s %-42s %14.6g %s\n", title, n, ms[n].Value, ms[n].Unit)
		}
	}
	section("end2end", r.EndToEnd)
	if r.Trace {
		section("layer", r.Layers)
	}
	section("detail", r.Detail)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "# CHECK FAILED:", e)
	}
}
