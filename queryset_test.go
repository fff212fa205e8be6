package vitex

import (
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/twigm"
	"repro/internal/xpath"
)

func TestQuerySetSingleScan(t *testing.T) {
	qs, err := NewQuerySet(
		"//trade[symbol='ACME']/price",
		"//trade[symbol='GLOBEX']/volume",
		"//trade/@seq",
	)
	if err != nil {
		t.Fatal(err)
	}
	doc := datagen.Ticker{Trades: 200, Seed: 3}.String()
	perQuery := make([]int, qs.Len())
	stats, err := qs.Stream(strings.NewReader(doc), Options{}, func(sr SetResult) error {
		perQuery[sr.QueryIndex]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every query must agree with its individual evaluation.
	for i := 0; i < qs.Len(); i++ {
		solo, err := qs.Query(i).Count(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if int64(perQuery[i]) != solo {
			t.Fatalf("query %d: set found %d, solo found %d", i, perQuery[i], solo)
		}
	}
	if perQuery[2] != 200 { // every trade has @seq
		t.Fatalf("@seq count = %d", perQuery[2])
	}
	if len(stats) != 3 || stats[0].Events != stats[1].Events {
		t.Fatalf("per-query stats inconsistent: %+v", stats)
	}
}

func TestQuerySetCounts(t *testing.T) {
	qs, err := NewQuerySet("//a", "//b", "//c")
	if err != nil {
		t.Fatal(err)
	}
	counts, err := qs.Counts(strings.NewReader("<r><a/><b/><a/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestQuerySetCompileError(t *testing.T) {
	if _, err := NewQuerySet("//a", "bad["); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestQuerySetAdd(t *testing.T) {
	qs, err := NewQuerySet("//a")
	if err != nil {
		t.Fatal(err)
	}
	i, err := qs.Add(MustCompile("//b"))
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 || qs.Len() != 2 {
		t.Fatalf("index = %d, len = %d", i, qs.Len())
	}
	counts, err := qs.Counts(strings.NewReader("<r><b/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestQuerySetRemove(t *testing.T) {
	qs, err := NewQuerySet("//a", "//b", "//c")
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Remove(1); err != nil {
		t.Fatal(err)
	}
	if qs.Len() != 2 {
		t.Fatalf("len = %d", qs.Len())
	}
	// Indexes shift down: //c is now query 1.
	counts, err := qs.Counts(strings.NewReader("<r><a/><b/><c/><c/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if err := qs.Remove(5); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// A machine in the engine that no query owns (what a failed engine Remove
// would leave behind) must not break later streams: it emits nothing and
// the owned queries' results are unchanged.
func TestQuerySetOrphanMachine(t *testing.T) {
	qs, err := NewQuerySet("//a", "//b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qs.eng.Add(xpath.MustParse("//a")); err != nil {
		t.Fatal(err)
	}
	qs.machQuery = nil
	doc := "<r><a/><b/><a/></r>"
	for _, opts := range []Options{{}, {Ordered: true}, {CountOnly: true}, {Parallel: 2}} {
		var got []int
		stats, err := qs.Stream(strings.NewReader(doc), opts, func(sr SetResult) error {
			got = append(got, sr.QueryIndex)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 2 || len(got) != 3 {
			t.Fatalf("opts %+v: %d stats, results from queries %v", opts, len(stats), got)
		}
	}
}

func TestQuerySetReplace(t *testing.T) {
	qs, err := NewQuerySet("//a", "//b")
	if err != nil {
		t.Fatal(err)
	}
	// Same branch count: slot reuse path.
	if err := qs.Replace(0, MustCompile("//c")); err != nil {
		t.Fatal(err)
	}
	// Different branch count: remove+add path.
	if err := qs.Replace(1, MustCompile("//a | //b")); err != nil {
		t.Fatal(err)
	}
	counts, err := qs.Counts(strings.NewReader("<r><a/><b/><c/><c/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if qs.Query(0).Source() != "//c" {
		t.Fatalf("query 0 = %q", qs.Query(0).Source())
	}
}

// TestQuerySetAddCompilesOnlyTheNewQuery is the public-API face of the
// incremental-churn guarantee: one Add to a 100-query live set compiles
// exactly the added query's machines, process-wide.
func TestQuerySetAddCompilesOnlyTheNewQuery(t *testing.T) {
	qs, err := NewQuerySet(datagen.SparseTickerQueries(10, 90)...)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile("//trade[symbol='CHURNX']/price | //trade[symbol='CHURNY']/volume")
	global0 := twigm.CompileCount()
	engine0 := qs.Metrics().Compiles
	if _, err := qs.Add(q); err != nil {
		t.Fatal(err)
	}
	if d := twigm.CompileCount() - global0; d != 2 { // one per union branch
		t.Fatalf("Add compiled %d machines process-wide, want 2", d)
	}
	if d := qs.Metrics().Compiles - engine0; d != 2 {
		t.Fatalf("Add compiled %d machines in the set engine, want 2", d)
	}
}

// TestChurnCheaperThanRecompile pins the acceptance floor: an incremental
// Add+Remove pair on a 100-query live set must be at least 10x cheaper than
// one full engine recompile (the pre-epoch cost of any mutation). The real
// ratio is around two orders of magnitude, so the 10x floor has wide margin
// against timer noise; BenchmarkQuerySetChurn gives the precise numbers.
func TestChurnCheaperThanRecompile(t *testing.T) {
	sources := datagen.SparseTickerQueries(10, 90)
	qs, err := NewQuerySet(sources...)
	if err != nil {
		t.Fatal(err)
	}
	extra := MustCompile("//trade[symbol='CHURNX']/price")
	var parsed []*xpath.Query
	for _, src := range append(append([]string(nil), sources...), extra.Source()) {
		qs, err := xpath.ParseUnion(src)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, qs...)
	}
	// Warm up both paths once (symbol maps, allocator) before timing.
	if idx, err := qs.Add(extra); err != nil {
		t.Fatal(err)
	} else if err := qs.Remove(idx); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.New(parsed...); err != nil {
		t.Fatal(err)
	}

	// Wall-clock floors flake when a GC or scheduler stall lands inside the
	// short fast arm, so the fast arm runs enough reps to amortize one
	// stall, per-op averages are compared, and a transiently noisy run gets
	// retried before the test fails.
	const (
		incReps = 200
		recReps = 30
		retries = 3
	)
	for attempt := 1; ; attempt++ {
		start := time.Now()
		for i := 0; i < incReps; i++ {
			idx, err := qs.Add(extra)
			if err != nil {
				t.Fatal(err)
			}
			if err := qs.Remove(idx); err != nil {
				t.Fatal(err)
			}
		}
		incremental := time.Since(start) / incReps

		start = time.Now()
		for i := 0; i < recReps; i++ {
			if _, err := engine.New(parsed...); err != nil {
				t.Fatal(err)
			}
		}
		recompile := time.Since(start) / recReps

		if recompile >= 10*incremental {
			t.Logf("attempt %d: churn %v vs recompile %v per op (%.0fx)",
				attempt, incremental, recompile, float64(recompile)/float64(incremental))
			return
		}
		if attempt == retries {
			t.Fatalf("incremental churn not 10x cheaper after %d attempts: Add+Remove %v vs recompile %v per op",
				retries, incremental, recompile)
		}
	}
}

func TestQuerySetEmitError(t *testing.T) {
	qs, err := NewQuerySet("//a")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	_, err = qs.Stream(strings.NewReader("<r><a/><a/></r>"), Options{}, func(SetResult) error {
		n++
		return &strError{"stop"}
	})
	if err == nil || n != 1 {
		t.Fatalf("err=%v n=%d", err, n)
	}
}

func TestQuerySetOrdered(t *testing.T) {
	qs, err := NewQuerySet("//a[p]/b")
	if err != nil {
		t.Fatal(err)
	}
	doc := "<r><a><b>1</b><b>2</b><p/></a></r>"
	var values []string
	_, err = qs.Stream(strings.NewReader(doc), Options{Ordered: true}, func(sr SetResult) error {
		values = append(values, sr.Value)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 2 || values[0] != "<b>1</b>" || values[1] != "<b>2</b>" {
		t.Fatalf("values = %q", values)
	}
}

func TestQuerySetPaperWorkload(t *testing.T) {
	qs, err := NewQuerySet(
		datagen.PaperQuery,
		"//section//table//cell",
		"//table[position]",
		"//author",
	)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := qs.Counts(strings.NewReader(datagen.PaperFigure1))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}
