package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	vitex "repro"
	"repro/internal/datagen"
	"repro/internal/engine"
)

// BenchRecord is one machine-readable benchmark result. The files seed the
// repository's performance trajectory: later engine work reruns the same
// workloads and compares against the committed numbers (the CI bench guard
// automates that for queryset_100, see checkBaseline).
type BenchRecord struct {
	Name    string `json:"name"`
	Queries int    `json:"queries"`
	// Workers is the sharded-evaluation worker count (0 = serial on the
	// calling goroutine).
	Workers    int `json:"workers,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU and GoVersion pin the host the record was measured on, so a
	// baseline comparison can spot a hardware or toolchain mismatch before
	// blaming the code.
	NumCPU       int     `json:"num_cpu"`
	GoVersion    string  `json:"go_version,omitempty"`
	CorpusBytes  int     `json:"corpus_bytes"`
	Events       int64   `json:"events"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	// CorpusMBPerSec is corpus bytes over wall time per op — the same
	// bandwidth unit the scanner_throughput workload reports, so engine
	// records and pure-scan records compare on one axis.
	CorpusMBPerSec float64 `json:"corpus_mb_per_sec"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	PeakStack      int     `json:"peak_stack_entries"`
	Results        int64   `json:"results_per_op"`

	// Prefix-overlap workloads: the generator's overlap fraction, whether
	// prefix sharing was enabled, and the dispatch/trie-sharing statistics
	// of the run — shared trie size, residual (anchored) machines, and the
	// per-event wake/push rates routed dispatch is judged by.
	Overlap            float64 `json:"overlap,omitempty"`
	SharingDisabled    bool    `json:"sharing_disabled,omitempty"`
	TrieNodes          int     `json:"trie_nodes,omitempty"`
	AnchoredMachines   int     `json:"anchored_machines,omitempty"`
	WokenPerEvent      float64 `json:"machines_woken_per_event"`
	TriePushesPerEvent float64 `json:"trie_pushes_per_event"`
}

// benchWorkloads runs the engine benchmark suite — the original ticker
// workloads (single query, routed QuerySet at 1/10/100 standing queries,
// churn) plus the prefix-overlap workloads at 100/1000/10000 standing
// queries over the Portal corpus — and writes one BENCH_<name>.json per
// workload into dir. With smoke=true only queryset_100 and queryset_1000
// run (the CI bench-smoke configuration).
func benchWorkloads(dir string, trades int, overlap float64, smoke bool, out io.Writer) error {
	doc := datagen.Ticker{Trades: trades, Seed: 1}.String()

	single := vitex.MustCompile("//trade[symbol='ACME']/price")
	sparse := datagen.SparseTickerQueries(10, 90)
	churnQuery := vitex.MustCompile("//trade[symbol='ACME']/volume")

	// The overlap corpus and subscription generator (see datagen.Portal):
	// structural traffic concentrates on the shared prefixes, leaves
	// diverge per query.
	portalDoc := datagen.Portal{Articles: 400, Seed: 1}.String()

	type workload struct {
		name    string
		queries int
		workers int
		overlap float64
		noshare bool
		doc     string
		metrics func() engine.Metrics
		run     func() (events int64, peak int, results int64, err error)
	}
	setRunnerOpts := func(qs *vitex.QuerySet, doc string, opts vitex.Options) func() (int64, int, int64, error) {
		return func() (int64, int, int64, error) {
			var results int64
			stats, err := qs.Stream(strings.NewReader(doc), opts,
				func(vitex.SetResult) error { results++; return nil })
			if err != nil {
				return 0, 0, 0, err
			}
			peak := 0
			for _, s := range stats {
				peak += s.PeakStackEntries
			}
			return stats[0].Events, peak, results, nil
		}
	}
	setRunner := func(qs *vitex.QuerySet, doc string) func() (int64, int, int64, error) {
		return setRunnerOpts(qs, doc, vitex.Options{CountOnly: true})
	}
	overlapWorkload := func(name string, n int, noshare bool) (workload, error) {
		sources := datagen.OverlapQueries(n, overlap, 0, 0, 42)
		qs, err := vitex.NewQuerySetConfigured(vitex.SetConfig{DisablePrefixSharing: noshare}, sources...)
		if err != nil {
			return workload{}, fmt.Errorf("%s: %w", name, err)
		}
		return workload{
			name: name, queries: n, overlap: overlap, noshare: noshare,
			doc: portalDoc, metrics: qs.Metrics, run: setRunner(qs, portalDoc),
		}, nil
	}

	var workloads []workload
	qs100, err := vitex.NewQuerySet(sparse...)
	if err != nil {
		return err
	}
	workloads = append(workloads, workload{
		name: "queryset_100", queries: 100, doc: doc,
		metrics: qs100.Metrics, run: setRunner(qs100, doc),
	})
	w1000, err := overlapWorkload("queryset_1000", 1000, false)
	if err != nil {
		return err
	}
	workloads = append(workloads, w1000)

	if !smoke {
		qs1, err := vitex.NewQuerySet(sparse[:1]...)
		if err != nil {
			return err
		}
		qs10, err := vitex.NewQuerySet(sparse[:10]...)
		if err != nil {
			return err
		}
		parWorkers := runtime.GOMAXPROCS(0)
		pre := []workload{
			{name: "single_query", queries: 1, doc: doc, run: func() (int64, int, int64, error) {
				var results int64
				stats, err := single.Stream(strings.NewReader(doc), vitex.Options{CountOnly: true},
					func(vitex.Result) error { results++; return nil })
				return stats.Events, stats.PeakStackEntries, results, err
			}},
			{name: "queryset_1", queries: 1, doc: doc, metrics: qs1.Metrics, run: setRunner(qs1, doc)},
			{name: "queryset_10", queries: 10, doc: doc, metrics: qs10.Metrics, run: setRunner(qs10, doc)},
		}
		workloads = append(pre, workloads...)
		// The sharded multi-core mode over the same 100-query standing
		// set; compare events_per_sec against queryset_100 for the
		// parallel speedup on this host (1.0x on a single-core host,
		// where sharding falls back to the serial path).
		workloads = append(workloads, workload{
			name: "queryset_100_parallel", queries: 100, workers: parWorkers, doc: doc,
			metrics: qs100.Metrics,
			run:     setRunnerOpts(qs100, doc, vitex.Options{CountOnly: true, Parallel: parWorkers}),
		})
		// Live subscription churn: each op adds one standing query to the
		// 100-query set, serves a document with the grown set, and removes
		// the query again. Compare ns_per_event against queryset_100: the
		// gap is the whole cost of continuous churn on a serving set
		// (incremental compile + trie graft/prune + epoch publication +
		// session resync).
		workloads = append(workloads, workload{
			name: "queryset_churn", queries: 100, doc: doc, metrics: qs100.Metrics,
			run: func() (int64, int, int64, error) {
				idx, err := qs100.Add(churnQuery)
				if err != nil {
					return 0, 0, 0, err
				}
				events, peak, results, err := setRunner(qs100, doc)()
				if rerr := qs100.Remove(idx); rerr != nil && err == nil {
					err = rerr
				}
				return events, peak, results, err
			},
		})
		// Prefix-overlap pair at 100 queries: identical subscriptions with
		// sharing on and off — the ratio of their ns_per_event is the
		// prefix-sharing speedup on overlapping workloads.
		for _, spec := range []struct {
			name    string
			noshare bool
		}{{"queryset_100_overlap", false}, {"queryset_100_overlap_noshare", true}} {
			w, err := overlapWorkload(spec.name, 100, spec.noshare)
			if err != nil {
				return err
			}
			workloads = append(workloads, w)
		}
		w10000, err := overlapWorkload("queryset_10000", 10000, false)
		if err != nil {
			return err
		}
		workloads = append(workloads, w10000)
	}

	for _, w := range workloads {
		rec, err := measure(w.name, w.queries, w.workers, len(w.doc), w.metrics, w.run)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Overlap = w.overlap
		rec.SharingDisabled = w.noshare
		path := filepath.Join(dir, "BENCH_"+w.name+".json")
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "%-28s %8.1f ns/event %12.0f events/s %8.1f allocs/op %6.2f woken/event  -> %s\n",
			w.name, rec.NsPerEvent, rec.EventsPerSec, rec.AllocsPerOp, rec.WokenPerEvent, path)
	}
	return nil
}

// measure times fn until at least minBenchTime has elapsed (after one
// warm-up run), tracking allocations with runtime.MemStats and dispatch
// statistics with the engine's cumulative metrics (when metricsOf is
// non-nil).
func measure(name string, queries, workers, corpusBytes int, metricsOf func() engine.Metrics, fn func() (int64, int, int64, error)) (*BenchRecord, error) {
	const minBenchTime = 500 * time.Millisecond
	events, peak, results, err := fn() // warm-up; also yields workload facts
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var m0 engine.Metrics
	if metricsOf != nil {
		m0 = metricsOf()
	}
	start := time.Now()
	iters := 0
	for time.Since(start) < minBenchTime {
		if _, _, _, err := fn(); err != nil {
			return nil, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(iters)
	rec := &BenchRecord{
		Name:           name,
		Queries:        queries,
		Workers:        workers,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GoVersion:      runtime.Version(),
		CorpusBytes:    corpusBytes,
		Events:         events,
		Iterations:     iters,
		NsPerOp:        nsPerOp,
		NsPerEvent:     nsPerOp / float64(events),
		EventsPerSec:   float64(events) / (nsPerOp / 1e9),
		CorpusMBPerSec: float64(corpusBytes) / (nsPerOp / 1e9) / 1e6,
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		PeakStack:      peak,
		Results:        results,
	}
	if metricsOf != nil {
		m1 := metricsOf()
		rec.TrieNodes = m1.TrieNodes
		rec.AnchoredMachines = m1.AnchoredMachines
		if de := m1.Events - m0.Events; de > 0 {
			rec.WokenPerEvent = float64(m1.Deliveries-m0.Deliveries) / float64(de)
			rec.TriePushesPerEvent = float64(m1.TriePushes-m0.TriePushes) / float64(de)
		}
	}
	return rec, nil
}

// checkBaseline is the benchstat-style regression guard: it compares the
// just-measured queryset_100 ns/event and the server_recovery replay rate
// against the committed baseline records in baselineDir and fails on a
// regression beyond the threshold. Run it on the same class of hardware the
// baseline was recorded on.
func checkBaseline(dir, baselineDir string, out io.Writer) error {
	const workload = "queryset_100"
	const threshold = 1.20
	read := func(d string) (*BenchRecord, error) {
		data, err := os.ReadFile(filepath.Join(d, "BENCH_"+workload+".json"))
		if err != nil {
			return nil, err
		}
		var rec BenchRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, err
		}
		return &rec, nil
	}
	base, err := read(baselineDir)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cur, err := read(dir)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	ratio := cur.NsPerEvent / base.NsPerEvent
	fmt.Fprintf(out, "bench guard: %s %.1f ns/event vs baseline %.1f (%.2fx, threshold %.2fx)\n",
		workload, cur.NsPerEvent, base.NsPerEvent, ratio, threshold)
	if ratio > threshold {
		return fmt.Errorf("bench guard: %s regressed %.2fx over the committed baseline (%.1f vs %.1f ns/event)",
			workload, ratio, cur.NsPerEvent, base.NsPerEvent)
	}
	if err := checkRecoveryBaseline(dir, baselineDir, threshold, out); err != nil {
		return err
	}
	return checkScannerBaseline(dir, baselineDir, threshold, out)
}

// checkScannerBaseline guards the front-end scanner's bandwidth: the batched
// ticker corpus MB/s of the scanner_throughput workload must not fall below
// 1/threshold of the committed baseline. The ticker corpus is the guard
// metric because it is the markup-dense extreme — tag-parse bound, the
// first place a scanner hot-path regression shows. A missing baseline record
// is skipped (the workload is newer than some checkouts), a missing current
// record is an error — the run was supposed to produce it.
func checkScannerBaseline(dir, baselineDir string, threshold float64, out io.Writer) error {
	const corpus = "ticker"
	read := func(d string) (float64, error) {
		data, err := os.ReadFile(filepath.Join(d, "BENCH_scanner_throughput.json"))
		if err != nil {
			return 0, err
		}
		var rec ScannerBenchRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return 0, err
		}
		for _, c := range rec.Corpora {
			if c.Corpus == corpus {
				return c.MBPerSec, nil
			}
		}
		return 0, fmt.Errorf("record in %s has no %s corpus", d, corpus)
	}
	base, err := read(baselineDir)
	if os.IsNotExist(err) {
		fmt.Fprintln(out, "bench guard: no committed BENCH_scanner_throughput.json baseline; skipping")
		return nil
	}
	if err != nil {
		return fmt.Errorf("scanner baseline: %w", err)
	}
	cur, err := read(dir)
	if err != nil {
		return fmt.Errorf("scanner current: %w", err)
	}
	ratio := base / cur
	fmt.Fprintf(out, "bench guard: scanner_throughput %s %.0f MB/s vs baseline %.0f (%.2fx, threshold %.2fx)\n",
		corpus, cur, base, ratio, threshold)
	if ratio > threshold {
		return fmt.Errorf("bench guard: scanner_throughput %s regressed %.2fx under the committed baseline (%.0f vs %.0f MB/s)",
			corpus, ratio, cur, base)
	}
	return nil
}

// checkRecoveryBaseline guards the durability path: the replay throughput of
// the largest server_recovery scale must not fall below 1/threshold of the
// committed baseline. A missing baseline record is skipped (the workload is
// newer than some checkouts), a missing current record is an error — the run
// was supposed to produce it.
func checkRecoveryBaseline(dir, baselineDir string, threshold float64, out io.Writer) error {
	read := func(d string) (*RecoveryBenchRecord, error) {
		data, err := os.ReadFile(filepath.Join(d, "BENCH_server_recovery.json"))
		if err != nil {
			return nil, err
		}
		var rec RecoveryBenchRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, err
		}
		if len(rec.Scales) == 0 {
			return nil, fmt.Errorf("record in %s has no scales", d)
		}
		return &rec, nil
	}
	base, err := read(baselineDir)
	if os.IsNotExist(err) {
		fmt.Fprintln(out, "bench guard: no committed BENCH_server_recovery.json baseline; skipping")
		return nil
	}
	if err != nil {
		return fmt.Errorf("recovery baseline: %w", err)
	}
	cur, err := read(dir)
	if err != nil {
		return fmt.Errorf("recovery current: %w", err)
	}
	baseRate := base.Scales[len(base.Scales)-1].ReplayDocsPerSec
	curRate := cur.Scales[len(cur.Scales)-1].ReplayDocsPerSec
	ratio := baseRate / curRate
	fmt.Fprintf(out, "bench guard: server_recovery replay %.0f docs/s vs baseline %.0f (%.2fx, threshold %.2fx)\n",
		curRate, baseRate, ratio, threshold)
	if ratio > threshold {
		return fmt.Errorf("bench guard: server_recovery replay regressed %.2fx under the committed baseline (%.0f vs %.0f docs/s)",
			ratio, curRate, baseRate)
	}
	return nil
}
