package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	vitex "repro"
	"repro/internal/datagen"
	"repro/internal/server"
)

// tickerFixture publishes two pool documents as doc_seq 1 and 2 and returns
// the deliveries a correct daemon would send for them.
func tickerFixture(t *testing.T) (*tickerBench, []publication, []delivery) {
	t.Helper()
	pool, err := tickerPool(7, datagen.SparseTickerQueries(1, 3), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	tb := &tickerBench{r: newRun(), pool: pool}
	now := time.Now()
	var pubs []publication
	var dels []delivery
	for i := 0; i < 2; i++ {
		p := publication{doc: i, due: now, sent: now, ack: now, seq: int64(i + 1)}
		pubs = append(pubs, p)
		for _, w := range pool[i].want[0] {
			w.DocSeq = p.seq
			dels = append(dels, delivery{w, now.Add(time.Millisecond)})
		}
	}
	return tb, pubs, dels
}

func newRun() *run {
	return &run{EndToEnd: map[string]metric{}, Layers: map[string]metric{}, Detail: map[string]metric{}}
}

func TestCorrectDeliveriesPass(t *testing.T) {
	tb, pubs, dels := tickerFixture(t)
	res := tb.analyze(pubs, dels)
	if res.failed != 0 || res.completed != 2 || len(tb.r.Errors) != 0 {
		t.Fatalf("failed=%d completed=%d errors=%v", res.failed, res.completed, tb.r.Errors)
	}
}

func TestCorruptedDeliveryIsCaught(t *testing.T) {
	corruptions := map[string]func(*server.Delivery){
		"value":       func(d *server.Delivery) { d.Value += "0" },
		"node_offset": func(d *server.Delivery) { d.NodeOffset++ },
		"seq":         func(d *server.Delivery) { d.Seq++ },
		"gap":         func(d *server.Delivery) { d.Type = server.DeliveryGap },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			tb, pubs, dels := tickerFixture(t)
			corrupt(&dels[len(dels)-1].d)
			if res := tb.analyze(pubs, dels); res.failed != 1 || len(tb.r.Errors) != 1 {
				t.Fatalf("corrupted %s: failed=%d errors=%v", name, res.failed, tb.r.Errors)
			}
		})
	}
	t.Run("missing", func(t *testing.T) {
		tb, pubs, dels := tickerFixture(t)
		if res := tb.analyze(pubs, dels[:len(dels)-1]); res.failed != 1 {
			t.Fatalf("missing delivery: failed=%d", res.failed)
		}
	})
}

func TestReplayMismatchIsCaught(t *testing.T) {
	live := server.Delivery{Type: server.DeliveryResult, DocSeq: 3, Seq: 1, NodeOffset: 40,
		Value: "<price>1.00</price>", ConfirmedAt: 9, DeliveredAt: 9}
	if !replayMatches(live, live, true) || !replayMatches(live, live, false) {
		t.Fatal("identical deliveries must match")
	}
	moved := live
	moved.DeliveredAt++
	if replayMatches(moved, live, true) {
		t.Error("a replayed delivery differing from the live one in any field must fail")
	}
	other := live
	other.DocSeq++
	if replayMatches(other, live, false) {
		t.Error("a replayed delivery for another document must fail")
	}
}

func TestFingerprintsMustMatch(t *testing.T) {
	a := fingerprint{CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CalibrationNs: 1000}
	if why := sameHost(a, a); why != "" {
		t.Fatalf("same host refused: %s", why)
	}
	for name, b := range map[string]fingerprint{
		"cpu":         {CPUModel: "y", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CalibrationNs: 1000},
		"nproc":       {CPUModel: "x", NumCPU: 4, GOMAXPROCS: 2, GoVersion: "go1.24.0", CalibrationNs: 1000},
		"gomaxprocs":  {CPUModel: "x", NumCPU: 2, GOMAXPROCS: 1, GoVersion: "go1.24.0", CalibrationNs: 1000},
		"go":          {CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.25.0", CalibrationNs: 1000},
		"calibration": {CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CalibrationNs: 1500},
	} {
		if sameHost(a, b) == "" {
			t.Errorf("%s differs but the hosts compared as equal", name)
		}
	}

	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		r := newRun()
		r.Workload, r.Fingerprint = "portal_10k", fp
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	other := a
	other.NumCPU = 8
	devnull, _ := os.Open(os.DevNull)
	defer devnull.Close()
	if code := compareMain([]string{write("a.json", a), write("b.json", other)}, devnull); code != 3 {
		t.Fatalf("compare across hosts exited %d, want 3", code)
	}
	if code := compareMain([]string{write("a.json", a), write("c.json", a)}, devnull); code != 0 {
		t.Fatalf("compare on one host exited %d, want 0", code)
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the benchmark", w.Name)
		}
	}
}

func TestOracleComparisonCatchesWrongValue(t *testing.T) {
	got := []vitex.SetResult{
		{Result: vitex.Result{NodeOffset: 20, Seq: 1, Value: "b"}},
		{Result: vitex.Result{NodeOffset: 10, Seq: 0, Value: "a"}},
	}
	if r := newRun(); !sameValues(r, "q", got, []string{"a", "b"}) {
		t.Fatalf("matching results refused: %v", r.Errors)
	}
	got[0].Value = "c"
	if sameValues(newRun(), "q", got, []string{"a", "b"}) {
		t.Fatal("a wrong value passed the oracle")
	}
	got[0].Value, got[0].Seq = "b", 0
	if sameValues(newRun(), "q", got, []string{"a", "b"}) {
		t.Fatal("Seq out of document order passed the oracle")
	}
}

// TestKnobHygiene keeps the workloads on the default configuration: no
// engine or scanner tuning knob and no non-default vitexd flag, so a change
// that claims a gain cannot get it from the benchmark's settings.
func TestKnobHygiene(t *testing.T) {
	forbidden := []string{
		"Parallel", "DisablePrefixSharing", "NewQuerySetConfigured", "EnableHotStats", ".Hot",
		"SetScanBatch", "SetEventBatch",
		`"-ring"`, `"-queue"`, `"-policy"`, `"-workers"`, `"-parallel"`, `"-wal-`, `"-drain"`,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, knob := range forbidden {
			if strings.Contains(string(src), knob) {
				t.Errorf("%s sets %s; workloads run the default configuration", f, knob)
			}
		}
	}
}
