package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	vitex "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/server"
)

// Serving workloads: a real vitexd process read through its HTTP API. The
// generator holds at most two connections (nproc on the reference host):
// ticker_feed one publisher and one result stream, resume_replay two
// result streams.

const (
	channelName    = "ticker"
	tickerTrades   = 50 // about 5 KB per document
	tickerPoolDocs = 64 // distinct documents, published round-robin
	silentQueries  = 99 // subscriptions on names the feed never has
	setupRepeats   = 5  // daemon cold starts per run; setup_s is their median
	replayDocs     = 3000
	// generatorLate is how far behind its schedule, as a share of the step,
	// the generator may finish a ladder step before the step counts as
	// generator-bound: it could not offer the step's rate.
	generatorLate = 0.10
)

// tickerDoc is one published document and the results the library gives
// each checked subscription on it.
type tickerDoc struct {
	body []byte
	want [][]server.Delivery
}

// tickerPool generates the documents from the seed and evaluates each with
// the library over the channel's whole query set, keeping the results of the
// queries in check. A document on which a checked query has no result is
// skipped for the next seed: every published document has a delivery whose
// latency can be timed.
func tickerPool(seed int64, queries []string, check []int) ([]tickerDoc, error) {
	qs, err := vitex.NewQuerySet(queries...)
	if err != nil {
		return nil, err
	}
	slot := map[int]int{}
	for i, qi := range check {
		slot[qi] = i
	}
	var pool []tickerDoc
	for s := seed * 1_000_000; len(pool) < tickerPoolDocs; s++ {
		body := datagen.Ticker{Trades: tickerTrades, Seed: s}.String()
		doc := tickerDoc{body: []byte(body), want: make([][]server.Delivery, len(check))}
		_, err := qs.Stream(strings.NewReader(body), vitex.Options{}, func(sr vitex.SetResult) error {
			if i, ok := slot[sr.QueryIndex]; ok {
				doc.want[i] = append(doc.want[i], server.Delivery{
					Type: server.DeliveryResult, Seq: sr.Seq, NodeOffset: sr.NodeOffset, Value: sr.Value,
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		complete := true
		for _, w := range doc.want {
			complete = complete && len(w) > 0
		}
		if complete {
			pool = append(pool, doc)
		}
	}
	return pool, nil
}

func meanDocBytes(pool []tickerDoc) float64 {
	n := 0
	for _, d := range pool {
		n += len(d.body)
	}
	return float64(n) / float64(len(pool))
}

// sameResult compares a delivery with the library's result for it.
func sameResult(got, want server.Delivery) bool {
	return got.Type == server.DeliveryResult && got.Seq == want.Seq &&
		got.NodeOffset == want.NodeOffset && got.Value == want.Value
}

// delivery is one decoded result-stream line and when its decode finished.
type delivery struct {
	d  server.Delivery
	at time.Time
}

// collector consumes one result stream on its own goroutine.
type collector struct {
	st     *connStats
	stream *client.ResultStream
	mu     sync.Mutex
	got    []delivery
	decode time.Duration // trace mode: time in Next not blocked in Read
	done   chan struct{}
}

func collect(st *connStats, stream *client.ResultStream) *collector {
	c := &collector{st: st, stream: stream, done: make(chan struct{})}
	go c.loop()
	return c
}

func (c *collector) loop() {
	defer close(c.done)
	for {
		var t0 time.Time
		var r0 int64
		if c.st.timed {
			t0, r0 = time.Now(), c.st.readNs.Load()
		}
		d, err := c.stream.Next()
		now := time.Now()
		if err != nil {
			return // the stream was closed or the daemon ended it
		}
		c.mu.Lock()
		if c.st.timed {
			c.decode += now.Sub(t0) - time.Duration(c.st.readNs.Load()-r0)
		}
		if d.Type != server.DeliveryEnd {
			c.got = append(c.got, delivery{*d, now})
		}
		c.mu.Unlock()
	}
}

func (c *collector) snapshot() []delivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]delivery(nil), c.got...)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// publication is one publish the generator made.
type publication struct {
	doc             int
	due, sent, ack  time.Time
	seq             int64
	refused, failed bool
}

// tickerBench drives ticker_feed.
type tickerBench struct {
	cfg      *config
	r        *run
	pool     []tickerDoc
	pub      *client.Client
	next     int // next pool document
	col      *collector
	queueMax int
}

// publishPhase publishes at rate for dur on the open-loop schedule and
// returns what it sent. sampleQueue polls /metrics for the queue depth on
// the publisher's own connection every 100ms.
func (t *tickerBench) publishPhase(ctx context.Context, rate float64, dur time.Duration, sampleQueue bool) []publication {
	var pubs []publication
	start := time.Now()
	nextSample := start
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		// Stop at the end of the schedule, or once the generator has fallen
		// so far behind that the phase is generator-bound anyway.
		if due.Sub(start) >= dur || time.Since(start) > time.Duration((1+generatorLate)*float64(dur)) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		p := publication{doc: t.next % len(t.pool), due: due, sent: time.Now()}
		t.next++
		resp, err := t.pub.PublishAsync(ctx, channelName, bytes.NewReader(t.pool[p.doc].body))
		p.ack = time.Now()
		var apiErr *client.APIError
		switch {
		case err == nil:
			p.seq = resp.DocSeq
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
			p.refused = true
		default:
			p.failed = true
			t.r.fail("publish: %v", err)
		}
		pubs = append(pubs, p)
		if sampleQueue && p.ack.After(nextSample) {
			nextSample = p.ack.Add(100 * time.Millisecond)
			if m, err := t.pub.Metrics(ctx); err == nil {
				t.queueMax = max(t.queueMax, m.Channels[channelName].Queued)
			}
		}
	}
	return pubs
}

// expected counts the deliveries the accepted publications should produce.
func (t *tickerBench) expected(pubs []publication) int {
	n := 0
	for _, p := range pubs {
		if p.seq > 0 {
			n += len(t.pool[p.doc].want[0])
		}
	}
	return n
}

// awaitDeliveries waits until the collector holds want deliveries.
func (t *tickerBench) awaitDeliveries(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for t.col.count() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// phaseResult is a phase's per-document outcome.
type phaseResult struct {
	latMs     []float64 // due -> last result decoded, per complete document
	lateMs    []float64 // sent - due
	ackMs     []float64 // sent -> ack
	refused   int
	failed    int // failed publishes, wrong or missing results
	completed int
	bytes     int64
	lastDone  time.Time
}

// analyze checks every delivery of the phase's documents against the
// library and times each document from its due time to its last result.
func (t *tickerBench) analyze(pubs []publication, dels []delivery) phaseResult {
	var res phaseResult
	bySeq := map[int64][]delivery{}
	for _, d := range dels {
		bySeq[d.d.DocSeq] = append(bySeq[d.d.DocSeq], d)
	}
	for _, p := range pubs {
		res.lateMs = append(res.lateMs, ms(p.sent.Sub(p.due)))
		switch {
		case p.refused:
			res.refused++
			continue
		case p.failed:
			res.failed++
			continue
		}
		res.ackMs = append(res.ackMs, ms(p.ack.Sub(p.sent)))
		want := t.pool[p.doc].want[0]
		got := bySeq[p.seq]
		if len(got) < len(want) {
			res.failed++
			t.r.fail("doc_seq %d: %d of %d results arrived", p.seq, len(got), len(want))
			continue
		}
		ok := len(got) == len(want)
		for i := 0; ok && i < len(want); i++ {
			ok = sameResult(got[i].d, want[i])
		}
		if !ok {
			res.failed++
			t.r.fail("doc_seq %d: delivery differs from the library's result", p.seq)
			continue
		}
		last := got[len(got)-1].at
		res.latMs = append(res.latMs, ms(last.Sub(p.due)))
		res.completed++
		res.bytes += int64(len(t.pool[p.doc].body))
		if last.After(res.lastDone) {
			res.lastDone = last
		}
	}
	return res
}

// runPhase publishes one phase, waits for its results and analyzes them.
func (t *tickerBench) runPhase(ctx context.Context, rate float64, dur time.Duration, sampleQueue bool) (phaseResult, []publication, int) {
	base := t.col.count()
	pubs := t.publishPhase(ctx, rate, dur, sampleQueue)
	backlog := t.outstanding(pubs, t.col.snapshot()[base:])
	want := base + t.expected(pubs)
	if !t.awaitDeliveries(want, 20*time.Second) {
		t.r.fail("results missing after 20s: %d of %d deliveries", t.col.count()-base, want-base)
	}
	return t.analyze(pubs, t.col.snapshot()[base:]), pubs, backlog
}

// outstanding counts the accepted publications still missing results: the
// backlog at the end of a phase's schedule.
func (t *tickerBench) outstanding(pubs []publication, dels []delivery) int {
	got := map[int64]int{}
	for _, d := range dels {
		got[d.d.DocSeq]++
	}
	n := 0
	for _, p := range pubs {
		if p.seq > 0 && got[p.seq] < len(t.pool[p.doc].want[0]) {
			n++
		}
	}
	return n
}

func runTicker(cfg *config, r *run) error {
	if cfg.light <= 0 || cfg.heavy <= 0 || len(cfg.ladder) == 0 || cfg.p99LimitMs <= 0 {
		return fmt.Errorf("ticker_feed needs --light, --heavy, --ladder and --p99-limit-ms")
	}
	queries := datagen.SparseTickerQueries(1, silentQueries)
	pool, err := tickerPool(cfg.seed, queries, []int{0})
	if err != nil {
		return err
	}
	docBytes := meanDocBytes(pool)
	r.detail("doc_bytes", "B", docBytes)
	t := &tickerBench{cfg: cfg, r: r, pool: pool}
	pubHC := oneConnClient(&connStats{})
	defer pubHC.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Set-up: cold start, /healthz, 100 subscriptions. Repeated on fresh
	// data directories; the last daemon stays up for the measurement.
	var d *daemon
	var setups []float64
	var subID string
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("data%d", i))
		start := time.Now()
		if d, err = startDaemon(cfg.vitexd, dir, cfg.trace, pubHC); err != nil {
			return err
		}
		defer d.stop()
		t.pub = client.NewWithHTTPClient(d.base, pubHC)
		for qi, q := range queries {
			resp, err := t.pub.Subscribe(ctx, channelName, q)
			if err != nil {
				return fmt.Errorf("subscribing: %w", err)
			}
			if qi == 0 {
				subID = resp.ID
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.e2e("setup_s", median(setups))

	streamStats := &connStats{timed: cfg.trace}
	streamHC := oneConnClient(streamStats)
	defer streamHC.CloseIdleConnections()
	stream, err := client.NewWithHTTPClient(d.base, streamHC).Results(ctx, channelName, subID)
	if err != nil {
		return fmt.Errorf("attaching results: %w", err)
	}
	t.col = collect(streamStats, stream)
	defer func() {
		stream.Close()
		<-t.col.done
	}()

	total := time.Duration(cfg.seconds * float64(time.Second))
	// light and heavy are the two fixed-rate phases whose operations count
	// toward attempted/failed.
	light, lightPubs, lightBacklog := t.runPhase(ctx, cfg.light, total/5, false)
	m0, err := t.pub.Metrics(ctx)
	if err != nil {
		return err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	heavy, heavyPubs, heavyBacklog := t.runPhase(ctx, cfg.heavy, total*2/5, true)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	m1, err := t.pub.Metrics(ctx)
	if err != nil {
		return err
	}
	for _, ph := range []phaseResult{light, heavy} {
		r.Attempted += int64(len(ph.lateMs))
		r.Failed += int64(ph.refused + ph.failed)
	}
	// Serving efficiency: document MB ingested, evaluated and delivered per
	// CPU-second the daemon spent in the heavy phase. Unlike the ladder's
	// sustained rate it does not swing with how much CPU the host's other
	// tenants leave the daemon.
	r.e2e("mb_per_s", float64(heavy.bytes)/1e6/(cpu1-cpu0))
	r.detail("daemon_cpu_s.heavy", "s", cpu1-cpu0)
	r.e2e("latency_p50_ms", median(heavy.latMs))
	r.e2e("latency_p90_ms", quantile(heavy.latMs, 0.9))
	r.detail("deliver_p50_ms.light", "ms", median(light.latMs))
	r.detail("deliver_p99_ms.light", "ms", quantile(light.latMs, 0.99))
	r.detail("deliver_samples.light", "count", float64(len(light.latMs)))
	r.detail("deliver_p50_ms.heavy", "ms", median(heavy.latMs))
	r.detail("deliver_p90_ms.heavy", "ms", quantile(heavy.latMs, 0.90))
	r.detail("deliver_p99_ms.heavy", "ms", quantile(heavy.latMs, 0.99))
	r.detail("deliver_samples.heavy", "count", float64(len(heavy.latMs)))
	r.detail("ack_p50_ms", "ms", median(heavy.ackMs))

	// Server-side figures over the heavy phase.
	r.layer("client.publish_rtt_ms", median(heavy.ackMs))
	r.layer("server.queue_depth_max", float64(t.queueMax))
	r.layer("server.refused", float64(light.refused+heavy.refused))
	r.layer("loadgen.late_ms_max", max(quantile(light.lateMs, 1), quantile(heavy.lateMs, 1)))
	c0, c1 := m0.Channels[channelName], m1.Channels[channelName]
	if c1.WAL != nil && c1.DocsIn > 0 {
		r.layer("wal.bytes_per_doc", float64(c1.WAL.Bytes)/float64(c1.DocsIn))
	}
	if c1.Latency != nil {
		r.layer("server.publish_to_delivery_p50_ms", float64(c1.Latency.PublishToDelivery.P50Ns)/1e6)
	}
	if n := t.col.count(); n > 0 {
		r.layer("wire.bytes_per_result", float64(streamStats.bytes.Load())/float64(n))
		r.layer("wire.reads_per_delivery", float64(streamStats.reads.Load())/float64(n))
	}
	if cfg.trace {
		t.col.mu.Lock()
		r.layer("client.decode_us_per_delivery", float64(t.col.decode)/1e3/float64(len(t.col.got)))
		t.col.mu.Unlock()
		if err := stageLayers(ctx, t.pub, r, heavyPubs); err != nil {
			return err
		}
	}
	if woken := c1.Engine.Deliveries - c0.Engine.Deliveries; woken > 0 {
		r.detail("engine.woken_per_event.heavy", "count", float64(woken)/float64(c1.Engine.Events-c0.Engine.Events))
	}

	// The sustained rate: the highest fixed rate, the two phases and then
	// the ladder up to its first miss, that meets the limit.
	sustained, sustainedMB := 0.0, 0.0
	if ok, mb := t.verdict("light", cfg.light, total/5, light, lightPubs, lightBacklog); ok {
		sustained, sustainedMB = cfg.light, mb
	}
	if ok, mb := t.verdict("heavy", cfg.heavy, total*2/5, heavy, heavyPubs, heavyBacklog); ok {
		sustained, sustainedMB = cfg.heavy, mb
	}
	step := total / 20
	for _, rate := range cfg.ladder {
		res, pubs, backlog := t.runPhase(ctx, rate, step, false)
		ok, mb := t.verdict(fmt.Sprintf("ladder.%g", rate), rate, step, res, pubs, backlog)
		if !ok {
			break
		}
		sustained, sustainedMB = rate, mb
	}
	r.detail("sustained_docs_per_s", "1/s", sustained)
	r.detail("sustained_mb_per_s", "MB/s", sustainedMB)

	stream.Close()
	<-t.col.done
	d.stop()
	r.e2e("memory_mb", d.maxRSSMB)
	return nil
}

// stageLayers summarizes the daemon's stage traces of the given
// publications: p50 and p99 of each stage, in milliseconds.
func stageLayers(ctx context.Context, cl *client.Client, r *run, pubs []publication) error {
	tr, err := cl.Traces(ctx)
	if err != nil {
		return fmt.Errorf("reading /debug/traces: %w", err)
	}
	seqs := map[int64]bool{}
	for _, p := range pubs {
		seqs[p.seq] = true
	}
	stages := map[string][]float64{}
	for _, rec := range tr.Traces {
		if !seqs[rec.DocSeq] {
			continue
		}
		for _, st := range serverStages {
			stages[st] = append(stages[st], float64(rec.Stages[st])/1e6)
		}
	}
	for _, st := range serverStages {
		xs := stages[st]
		r.layer("server."+st+".p50_ms", median(xs))
		r.layer("server."+st+".p99_ms", quantile(xs, 0.99))
	}
	r.detail("server.traces", "count", float64(len(stages[serverStages[0]])))
	return nil
}

// verdict applies the sustained-rate criteria to one fixed-rate phase: the
// generator kept to its schedule, nothing was refused or failed, the p99
// latency is under the limit and the backlog at the end of the schedule is
// no more than the limit's worth of documents. It returns the MB/s of
// documents the phase delivered.
func (t *tickerBench) verdict(name string, rate float64, dur time.Duration, res phaseResult, pubs []publication, backlog int) (ok bool, mbps float64) {
	p99 := quantile(res.latMs, 0.99)
	t.r.detail(name+".p99_ms", "ms", p99)
	t.r.detail(name+".refused", "count", float64(res.refused))
	t.r.detail(name+".backlog", "count", float64(backlog))
	if len(pubs) == 0 {
		return false, 0
	}
	last := pubs[len(pubs)-1]
	if last.sent.Sub(last.due) > time.Duration(generatorLate*float64(dur)) {
		t.r.detail(name+".generator_bound", "count", 1)
		return false, 0
	}
	if res.refused > 0 || res.failed > 0 || len(res.latMs) == 0 || p99 > t.cfg.p99LimitMs ||
		float64(backlog) > rate*t.cfg.p99LimitMs/1000 {
		return false, 0
	}
	return true, float64(res.bytes) / 1e6 / res.lastDone.Sub(pubs[0].due).Seconds()
}
