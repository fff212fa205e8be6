package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	vitex "repro"
	"repro/internal/datagen"
	"repro/internal/dom"
	"repro/internal/sax"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// Library workloads: an ablation ladder of real calls over the same bytes.
// The scan rung runs the scanner into a null batch handler, the count rung
// runs QuerySet.Stream with CountOnly, the values rung runs QuerySet.Stream
// with values. Consecutive rungs subtract into scan, engine and serialize
// costs, which add back to the values pass by construction.

const (
	portalQueries  = 10_000
	portalOverlap  = 0.9
	portalArticles = 1_000 // 0.24 MB: about 20 passes in a 15 s run
	portalSample   = 100   // every 100th query is checked against the DOM
	proteinBytes   = 75 << 20
	proteinQuery   = "//ProteinEntry[reference]/@id"
)

type rung int

const (
	rungScan rung = iota
	rungCount
	rungValues
	numRungs
)

var rungNames = [numRungs]string{"scan", "count", "values"}

// libBench drives one library workload.
type libBench struct {
	cfg     *config
	r       *run
	sources []string
	size    int64
	// open returns a fresh reader over the document and its closer.
	open func() (io.Reader, func(), error)
	// keep selects the queries whose results the reference values pass
	// retains for the oracle.
	keep func(qi int) bool
	// oracle checks the retained reference results.
	oracle func(kept map[int][]vitex.SetResult)
}

func runPortal(cfg *config, r *run) error {
	feed := []byte(datagen.Portal{Articles: portalArticles, Seed: cfg.seed}.String())
	sources := datagen.OverlapQueries(portalQueries, portalOverlap, 0, 0, cfg.seed)
	distinct := map[string]bool{}
	for _, s := range sources {
		distinct[s] = true
	}
	r.detail("queries.distinct", "count", float64(len(distinct)))
	b := &libBench{
		cfg: cfg, r: r, sources: sources, size: int64(len(feed)),
		open: func() (io.Reader, func(), error) { return bytes.NewReader(feed), func() {}, nil },
		keep: func(qi int) bool { return qi%portalSample == 0 },
	}
	b.oracle = func(kept map[int][]vitex.SetResult) {
		doc, err := dom.Build(sax.NewStdDriver(bytes.NewReader(feed)))
		if err != nil {
			r.fail("oracle: building DOM: %v", err)
			return
		}
		for qi := 0; qi < len(sources); qi += portalSample {
			r.Attempted++
			if !matchOracle(r, doc, sources[qi], kept[qi]) {
				r.Failed++
			}
		}
	}
	return b.run(func() { feed = nil })
}

func runProtein(cfg *config, r *run) error {
	genStart := time.Now()
	path := filepath.Join(cfg.work, "protein.xml")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	size, err := datagen.Protein{TargetBytes: proteinBytes, Seed: cfg.seed}.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing protein corpus: %w", err)
	}
	r.detail("inputs_s", "s", time.Since(genStart).Seconds())
	b := &libBench{
		cfg: cfg, r: r, sources: []string{proteinQuery}, size: size,
		open: func() (io.Reader, func(), error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			return f, func() { f.Close() }, nil
		},
		keep: func(int) bool { return true },
	}
	b.oracle = func(kept map[int][]vitex.SetResult) {
		checkProtein(r, path, kept[0])
	}
	return b.run(func() {})
}

// checkProtein compares every result with the DOM oracle. The corpus is a
// flat sequence of ProteinEntry elements under the root, and the query only
// looks inside one entry, so evaluating it on each entry as its own document
// (offsets shifted by the entry's position) is exact and keeps the oracle's
// memory at one entry.
func checkProtein(r *run, path string, got []vitex.SetResult) {
	data, err := os.ReadFile(path)
	if err != nil {
		r.fail("oracle: %v", err)
		return
	}
	query, err := xpath.ParseUnion(proteinQuery)
	if err != nil {
		r.fail("oracle: %v", err)
		return
	}
	var want []string
	sc := xmlscan.NewScanner(bytes.NewReader(nil))
	open, closeTag := []byte("<ProteinEntry "), []byte("</ProteinEntry>")
	for off := 0; ; {
		i := bytes.Index(data[off:], open)
		if i < 0 {
			break
		}
		start := off + i
		j := bytes.Index(data[start:], closeTag)
		if j < 0 {
			r.fail("oracle: unterminated ProteinEntry at %d", start)
			return
		}
		end := start + j + len(closeTag)
		sc.Reset(bytes.NewReader(data[start:end]))
		doc, err := dom.Build(sc)
		if err != nil {
			r.fail("oracle: entry at %d: %v", start, err)
			return
		}
		for _, n := range dom.EvalUnion(doc, query) {
			want = append(want, n.Serialize())
		}
		off = end
	}
	r.Attempted++
	if !sameValues(r, proteinQuery, got, want) {
		r.Failed++
	}
}

// matchOracle compares one query's library results with the DOM's.
func matchOracle(r *run, doc *dom.Document, src string, got []vitex.SetResult) bool {
	var want []string
	for _, n := range dom.EvalString(doc, src) {
		want = append(want, n.Serialize())
	}
	return sameValues(r, src, got, want)
}

// sameValues checks results in document order (by NodeOffset) against the
// oracle's values, and that Seq rises in that order.
func sameValues(r *run, src string, got []vitex.SetResult, want []string) bool {
	sorted := append([]vitex.SetResult(nil), got...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].NodeOffset < sorted[j].NodeOffset })
	if len(sorted) != len(want) {
		r.fail("oracle: %s: %d results, DOM has %d", src, len(sorted), len(want))
		return false
	}
	for i, res := range sorted {
		if res.Value != want[i] {
			r.fail("oracle: %s: result %d is %q, DOM has %q", src, i, res.Value, want[i])
			return false
		}
		if i > 0 && res.Seq <= sorted[i-1].Seq {
			r.fail("oracle: %s: result %d has Seq %d after %d", src, i, res.Seq, sorted[i-1].Seq)
			return false
		}
	}
	return true
}

// digest is an FNV-1a hash of a pass's results in emission order.
type digest uint64

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (d *digest) int(v int64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ digest(byte(v>>(8*i)))) * fnvPrime
	}
}

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		*d = (*d ^ digest(s[i])) * fnvPrime
	}
	d.int(int64(len(s)))
}

// scanSink is the null batch handler of the scan rung.
type scanSink struct{ events int64 }

func (s *scanSink) HandleEvent(*sax.Event) error { s.events++; return nil }

func (s *scanSink) HandleBatch(evs []sax.Event) error {
	s.events += int64(len(evs))
	return nil
}

// passResult is what one rung pass observed.
type passResult struct {
	d       time.Duration
	onCPU   time.Duration // the calling thread's CPU time
	cpu     time.Duration // process CPU time, the collector's included
	digest  digest
	results int64
	events  int64
	// Trace-mode accounting around the call.
	allocs, allocBytes             uint64
	woken, triePushes, engineEvent int64
}

// compile builds the standing set the way a user would, Compile plus Add
// per query. spans times each call for the per-layer compile figure.
func (b *libBench) compile(spans bool) (*vitex.QuerySet, time.Duration, time.Duration, error) {
	start := time.Now()
	qs, err := vitex.NewQuerySet()
	if err != nil {
		return nil, 0, 0, err
	}
	var inCalls time.Duration
	for _, src := range b.sources {
		var t0 time.Time
		if spans {
			t0 = time.Now()
		}
		q, err := vitex.Compile(src)
		if err == nil {
			_, err = qs.Add(q)
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("compiling %q: %w", src, err)
		}
		if spans {
			inCalls += time.Since(t0)
		}
	}
	return qs, time.Since(start), inCalls, nil
}

// pass runs one rung over a fresh reader.
func (b *libBench) pass(qs *vitex.QuerySet, sc *xmlscan.Scanner, which rung, kept map[int][]vitex.SetResult) (passResult, error) {
	rd, done, err := b.open()
	if err != nil {
		return passResult{}, err
	}
	defer done()
	var p passResult
	d := digest(fnvOffset)
	var ms0, ms1 runtime.MemStats
	var m0 = qs.Metrics()
	if b.cfg.trace {
		runtime.ReadMemStats(&ms0)
	}
	// The pass runs on this goroutine; locking it to its thread makes the
	// thread's CPU clock the pass's own on-CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0, thread0 := processCPU(), threadCPU()
	start := time.Now()
	switch which {
	case rungScan:
		sink := scanSink{}
		sc.Reset(rd)
		err = sc.Run(&sink)
		p.events = sink.events
	case rungCount:
		_, err = qs.Stream(rd, vitex.Options{CountOnly: true}, func(sr vitex.SetResult) error {
			d.int(int64(sr.QueryIndex))
			d.int(sr.Seq)
			d.int(sr.NodeOffset)
			p.results++
			return nil
		})
	case rungValues:
		_, err = qs.Stream(rd, vitex.Options{}, func(sr vitex.SetResult) error {
			d.int(int64(sr.QueryIndex))
			d.int(sr.Seq)
			d.int(sr.NodeOffset)
			d.str(sr.Value)
			p.results++
			if kept != nil && b.keep(sr.QueryIndex) {
				sr.Value = strings.Clone(sr.Value)
				kept[sr.QueryIndex] = append(kept[sr.QueryIndex], sr)
			}
			return nil
		})
	}
	p.d = time.Since(start)
	p.onCPU = threadCPU() - thread0
	p.cpu = processCPU() - cpu0
	if b.cfg.trace {
		runtime.ReadMemStats(&ms1)
		p.allocs = ms1.Mallocs - ms0.Mallocs
		p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	m1 := qs.Metrics()
	p.woken = m1.Deliveries - m0.Deliveries
	p.triePushes = m1.TriePushes - m0.TriePushes
	p.engineEvent = m1.Events - m0.Events
	p.digest = d
	return p, err
}

// run measures set-up, checks the reference pass against the oracle, then
// repeats passes for the configured time: values passes only in the
// untraced run, the three rungs in turn in the traced one.
func (b *libBench) run(release func()) error {
	cfg, r := b.cfg, b.r
	// Set-up: compile the standing set several times; the median is
	// setup_s, the last set is the one measured.
	var qs *vitex.QuerySet
	var setups, spanTotals []float64
	// Input generation leaves garbage behind; collect it first so that no
	// collection cycle is still running during the first samples.
	runtime.GC()
	setupStart := time.Now()
	for i := 0; i < 3 || (i < 200 && time.Since(setupStart) < 2*time.Second); i++ {
		q, d, inCalls, err := b.compile(cfg.trace)
		if err != nil {
			return err
		}
		qs = q
		setups = append(setups, d.Seconds())
		spanTotals = append(spanTotals, float64(inCalls)/1e3)
	}
	r.e2e("setup_s", median(setups))
	r.detail("setup.samples", "count", float64(len(setups)))
	if cfg.trace {
		r.layer("compile.us_per_query", median(spanTotals)/float64(len(b.sources)))
		m := qs.Metrics()
		r.layer("engine.live_machines", float64(m.Live))
		r.layer("engine.trie_nodes", float64(m.TrieNodes))
		r.layer("engine.anchored_machines", float64(m.AnchoredMachines))
	}

	sc := xmlscan.NewScanner(bytes.NewReader(nil))
	// Reference values pass: warms the pools, fixes the values digest and
	// keeps the results the oracle checks. The scan and count rungs take
	// their reference digest from their first timed pass.
	var ref [numRungs]passResult
	var haveRef [numRungs]bool
	kept := map[int][]vitex.SetResult{}
	p, err := b.pass(qs, sc, rungValues, kept)
	if err != nil {
		return fmt.Errorf("reference values pass: %w", err)
	}
	ref[rungValues], haveRef[rungValues] = p, true
	oracleStart := time.Now()
	b.oracle(kept)
	kept, b.oracle = nil, nil
	r.detail("oracle_s", "s", time.Since(oracleStart).Seconds())

	rungs := []rung{rungValues}
	if cfg.trace {
		rungs = []rung{rungScan, rungCount, rungValues}
	}
	var passes [numRungs][]passResult
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < time.Duration(cfg.seconds*float64(time.Second)); round++ {
		for _, k := range rungs {
			// Every pass starts from a collected heap, so whether a
			// collection of the standing set's heap overlaps it does not
			// depend on the passes before it.
			runtime.GC()
			p, err := b.pass(qs, sc, k, nil)
			r.Attempted++
			switch {
			case err != nil:
				r.Failed++
				r.fail("%s pass: %v", rungNames[k], err)
			case !haveRef[k]:
				ref[k], haveRef[k] = p, true
				passes[k] = append(passes[k], p)
				if k == rungCount && p.results != ref[rungValues].results {
					r.Failed++
					r.fail("count pass found %d results, values pass %d", p.results, ref[rungValues].results)
				}
			case p.digest != ref[k].digest || p.results != ref[k].results || p.events != ref[k].events:
				r.Failed++
				r.fail("%s pass %d: result digest differs from the reference pass", rungNames[k], round)
			default:
				passes[k] = append(passes[k], p)
			}
		}
	}
	// A pass is single-threaded CPU-bound work, so its latency is its
	// on-CPU time, and throughput is per CPU-second of the process (the
	// collector included). Unlike wall-clock figures, neither includes the
	// CPU the hypervisor hands to the host's other tenants; the wall-clock
	// ones are details.
	var secs [numRungs][]float64
	var cpus, walls []float64
	for k := range passes {
		for _, p := range passes[k] {
			secs[k] = append(secs[k], p.onCPU.Seconds())
		}
	}
	for _, p := range passes[rungValues] {
		cpus = append(cpus, p.cpu.Seconds())
		walls = append(walls, p.d.Seconds())
	}
	values := median(secs[rungValues])
	mb := float64(b.size) / 1e6
	r.e2e("mb_per_s", mb/median(cpus))
	r.e2e("latency_p50_ms", 1000*values)
	r.e2e("latency_p90_ms", 1000*quantile(secs[rungValues], 0.9))
	r.detail("wall_mb_per_s", "MB/s", mb/median(walls))
	r.detail("wall_latency_p50_ms", "ms", 1000*median(walls))
	r.detail("corpus.mb", "MB", mb)
	r.detail("passes.per_rung", "count", float64(len(secs[rungValues])))
	r.detail("results.per_pass", "count", float64(ref[rungValues].results))

	if cfg.trace {
		// Consecutive rungs subtract into layers, each a difference of
		// medians of on-CPU time, so the layers add up to the values pass.
		scan, count := median(secs[rungScan]), median(secs[rungCount])
		events := float64(ref[rungScan].events)
		results := float64(ref[rungValues].results)
		r.layer("xmlscan.mb_per_s", mb/scan)
		r.layer("xmlscan.ns_per_event", 1e9*scan/events)
		r.layer("xmlscan.events", events)
		r.layer("engine.route_ns_per_event", 1e9*(count-scan)/events)
		if results > 0 {
			r.layer("engine.serialize_ns_per_result", 1e9*(values-count)/results)
		}
		r.layer("rung.scan_ms", 1000*scan)
		r.layer("rung.engine_ms", 1000*(count-scan))
		r.layer("rung.serialize_ms", 1000*(values-count))
		r.layer("rung.values_ms", 1000*values)
		vp := ref[rungValues]
		if vp.engineEvent > 0 {
			r.layer("engine.woken_per_event", float64(vp.woken)/float64(vp.engineEvent))
			r.layer("engine.trie_pushes_per_event", float64(vp.triePushes)/float64(vp.engineEvent))
		}
		if vp.woken > 0 {
			r.layer("engine.results_per_wake", results/float64(vp.woken))
		}
		var allocs, bytes []float64
		for _, p := range passes[rungValues] {
			allocs = append(allocs, float64(p.allocs))
			bytes = append(bytes, float64(p.allocBytes))
		}
		r.layer("engine.allocs_per_pass", median(allocs))
		r.layer("engine.alloc_bytes_per_pass", median(bytes))
	}

	// The standing set's live heap: the heap after a full collection with
	// the set held, minus the heap once it is collected too. Every
	// document, result and oracle structure is released before either
	// reading, and the collections empty the set's session pools, so this
	// is what the set keeps between documents.
	release()
	b.sources, passes, sc = nil, [numRungs][]passResult{}, nil
	held := liveHeap()
	runtime.KeepAlive(qs)
	qs = nil
	r.e2e("memory_mb", float64(held-liveHeap())/1e6)
	return nil
}

// liveHeap returns the bytes of live heap objects after a full collection
// (two cycles, so sync.Pool victim caches are emptied too).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
