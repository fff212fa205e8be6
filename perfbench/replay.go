package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/server"
)

// resume_replay: a durable channel holding replayDocs documents is
// restarted, and two matching subscriptions resume from cursor 0
// concurrently, in a closed loop. The first subscription was attached while
// the documents were published, so its replay is checked against its own
// live deliveries; the second joined after them (a late joiner), so its
// replay is checked against the library.

// resumer is one closed-loop replaying subscriber.
type resumer struct {
	st    *connStats
	cl    *client.Client
	subID string
	want  []server.Delivery
	// exact compares whole deliveries (the live reference); otherwise the
	// document and the library's fields are compared.
	exact  bool
	passes []float64 // seconds per full replay
	first  []float64 // ms from attach to first delivery
	dels   int64
	decode time.Duration
	failed int
	errs   []string
}

// pass replays from cursor 0 until every expected delivery arrived.
func (rs *resumer) pass(ctx context.Context) error {
	start := time.Now()
	var stream *client.ResultStream
	for {
		var err error
		stream, err = rs.cl.ResultsFrom(ctx, channelName, rs.subID, 0, 0)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
			// The previous pass's connection is still detaching.
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			return err
		}
		break
	}
	defer stream.Close()
	for i := range rs.want {
		var t0 time.Time
		var r0 int64
		if rs.st.timed {
			t0, r0 = time.Now(), rs.st.readNs.Load()
		}
		d, err := stream.Next()
		if err != nil {
			return err
		}
		if rs.st.timed {
			rs.decode += time.Since(t0) - time.Duration(rs.st.readNs.Load()-r0)
		}
		if i == 0 {
			rs.first = append(rs.first, ms(time.Since(start)))
		}
		if !replayMatches(*d, rs.want[i], rs.exact) {
			rs.failed++
			if len(rs.errs) < 5 {
				rs.errs = append(rs.errs, fmt.Sprintf("replayed delivery %d of %s is %+v, want %+v", i, rs.subID, *d, rs.want[i]))
			}
			return nil
		}
	}
	rs.dels += int64(len(rs.want))
	rs.passes = append(rs.passes, time.Since(start).Seconds())
	return nil
}

// replayMatches checks one replayed delivery: field for field against a
// live delivery (exact), or by document and the library's fields.
func replayMatches(got, want server.Delivery, exact bool) bool {
	if exact {
		return got == want
	}
	return got.DocSeq == want.DocSeq && sameResult(got, want)
}

func runReplay(cfg *config, r *run) error {
	queries := datagen.SparseTickerQueries(2, silentQueries-1)
	pool, err := tickerPool(cfg.seed, queries, []int{0, 1})
	if err != nil {
		return err
	}
	docBytes := meanDocBytes(pool)
	r.detail("doc_bytes", "B", docBytes)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := filepath.Join(cfg.work, "data")

	// Populate: the first matching subscription and the silent ones
	// subscribe, the documents are published with the first one's live
	// stream attached, and the second matching subscription joins last.
	liveStats := &connStats{}
	pubHC, liveHC := oneConnClient(&connStats{}), oneConnClient(liveStats)
	defer pubHC.CloseIdleConnections()
	defer liveHC.CloseIdleConnections()
	d, err := startDaemon(cfg.vitexd, dir, cfg.trace, pubHC)
	if err != nil {
		return err
	}
	defer d.stop()
	pub := client.NewWithHTTPClient(d.base, pubHC)
	ids := make([]string, len(queries))
	subscribe := func(qi int) error {
		resp, err := pub.Subscribe(ctx, channelName, queries[qi])
		if err != nil {
			return fmt.Errorf("subscribing: %w", err)
		}
		ids[qi] = resp.ID
		return nil
	}
	for qi := range queries {
		if qi != 1 {
			if err := subscribe(qi); err != nil {
				return err
			}
		}
	}
	stream, err := client.NewWithHTTPClient(d.base, liveHC).Results(ctx, channelName, ids[0])
	if err != nil {
		return err
	}
	live := collect(liveStats, stream)
	want := [2][]server.Delivery{}
	for k := 0; k < replayDocs; k++ {
		doc := pool[k%len(pool)]
		var resp *server.PublishResponse
		for {
			resp, err = pub.PublishAsync(ctx, channelName, bytes.NewReader(doc.body))
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
				time.Sleep(time.Millisecond) // queue full: populate is closed-loop
				continue
			}
			break
		}
		if err != nil {
			return fmt.Errorf("populating: %w", err)
		}
		for i := range want {
			for _, w := range doc.want[i] {
				w.DocSeq = resp.DocSeq
				want[i] = append(want[i], w)
			}
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for live.count() < len(want[0]) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stream.Close()
	<-live.done
	liveDels := live.snapshot()
	if len(liveDels) != len(want[0]) {
		return fmt.Errorf("populating: %d live deliveries arrived, want %d", len(liveDels), len(want[0]))
	}
	// The reconnecting subscriber's reference is what it received live,
	// once that matches the library.
	r.Attempted++
	for i, ld := range liveDels {
		if !replayMatches(ld.d, want[0][i], false) {
			r.Failed++
			r.fail("live delivery %d differs from the library's result", i)
			break
		}
		want[0][i] = ld.d
	}
	if err := subscribe(1); err != nil {
		return err
	}
	d.stop()

	// Set-up: cold recovery on the populated directory, to /healthz.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d, err = startDaemon(cfg.vitexd, dir, cfg.trace, pubHC); err != nil {
			return err
		}
		defer d.stop()
		setups = append(setups, d.ready.Seconds())
		if i < setupRepeats-1 {
			d.stop()
		}
	}
	r.e2e("setup_s", median(setups))
	pubHC.CloseIdleConnections()

	// Measure: two resumers, each on its own connection, replaying from
	// cursor 0 over and over.
	resumers := make([]*resumer, 2)
	for i := range resumers {
		st := &connStats{timed: cfg.trace}
		hc := oneConnClient(st)
		defer hc.CloseIdleConnections()
		resumers[i] = &resumer{st: st, cl: client.NewWithHTTPClient(d.base, hc), subID: ids[i], want: want[i], exact: i == 0}
	}
	m0, err := resumers[0].cl.Metrics(ctx)
	if err != nil {
		return err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	errs := make([]error, len(resumers))
	for i, rs := range resumers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 2 || time.Now().Before(end); n++ {
				if err := rs.pass(ctx); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("replaying: %w", err)
		}
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	m1, err := resumers[0].cl.Metrics(ctx)
	if err != nil {
		return err
	}

	var passes, first []float64
	var dels, reads, wireBytes int64
	var decode time.Duration
	for _, rs := range resumers {
		r.Attempted += int64(len(rs.passes) + rs.failed)
		r.Failed += int64(rs.failed)
		for _, e := range rs.errs {
			r.fail("%s", e)
		}
		passes = append(passes, rs.passes...)
		first = append(first, rs.first...)
		dels += rs.dels
		reads += rs.st.reads.Load()
		wireBytes += rs.st.bytes.Load()
		decode += rs.decode
	}
	perPass := median(passes)
	// Replayed document MB per CPU-second the daemon spent serving both
	// resumers; the wall-clock rate per resumer is a detail.
	r.e2e("mb_per_s", float64(len(passes))*replayDocs*docBytes/1e6/(cpu1-cpu0))
	r.detail("daemon_cpu_s", "s", cpu1-cpu0)
	r.detail("wall_mb_per_s", "MB/s", replayDocs*docBytes/1e6/perPass)
	r.e2e("latency_p50_ms", 1000*perPass)
	r.e2e("latency_p90_ms", 1000*quantile(passes, 0.9))
	r.detail("replay_docs_per_s", "1/s", replayDocs/perPass)
	r.detail("replay.passes", "count", float64(len(passes)))
	r.layer("replay.first_delivery_ms", median(first))
	if dels > 0 {
		r.layer("wire.bytes_per_result", float64(wireBytes)/float64(dels))
		r.layer("wire.reads_per_delivery", float64(reads)/float64(dels))
		if cfg.trace {
			r.layer("client.decode_us_per_delivery", float64(decode)/1e3/float64(dels))
		}
	}
	c0, c1 := m0.Channels[channelName], m1.Channels[channelName]
	if c0.WAL != nil && c1.WAL != nil && len(passes) > 0 {
		replayed := float64(c1.WAL.ReplayDocs - c0.WAL.ReplayDocs)
		r.layer("replay.docs_evaluated_per_resumer_doc", replayed/float64(replayDocs*len(passes)))
		if replayed > 0 {
			r.layer("replay.woken_per_doc", float64(c1.Engine.Deliveries-c0.Engine.Deliveries)/replayed)
		}
		r.layer("wal.bytes_per_doc", float64(c1.WAL.Bytes)/float64(replayDocs))
	}
	d.stop()
	r.e2e("memory_mb", d.maxRSSMB)
	return nil
}
