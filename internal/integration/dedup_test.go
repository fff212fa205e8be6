package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"

	vitex "repro"
)

// dedupModes are the evaluation modes every dedup check runs under.
var dedupModes = []struct {
	name string
	opts vitex.Options
}{
	{"values", vitex.Options{}},
	{"ordered", vitex.Options{Ordered: true}},
	{"countonly", vitex.Options{CountOnly: true}},
	{"parallel", vitex.Options{Parallel: 3}},
	{"parallel-ordered", vitex.Options{Parallel: 2, Ordered: true}},
}

// dedupSources draws distinct random queries (single paths and unions) and
// repeats some of them, one copy spelled in canonical form so equal queries
// written differently are covered. It returns the shuffled sources and the
// number of engine machines the set needs: one per branch of each distinct
// canonical query.
func dedupSources(rng *rand.Rand, distinct int) ([]string, int) {
	gen := datagen.DefaultQueryGen
	var sources []string
	forms := map[string]bool{}
	machines := 0
	for i := 0; i < distinct; i++ {
		src := gen.Generate(rng)
		q := vitex.MustCompile(src)
		if !forms[q.String()] {
			forms[q.String()] = true
			machines += strings.Count(q.String(), " | ") + 1
		}
		sources = append(sources, src)
		switch rng.Intn(3) {
		case 0:
			sources = append(sources, src, q.String())
		case 1:
			sources = append(sources, q.String())
		}
	}
	rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
	return sources, machines
}

// checkAgainstSolo streams the set once per mode and requires each query's
// results and statistics to equal the same query streamed on its own.
func checkAgainstSolo(t *testing.T, label string, qs *vitex.QuerySet, sources []string, doc string) {
	t.Helper()
	if qs.Len() != len(sources) {
		t.Fatalf("%s: set holds %d queries, want %d", label, qs.Len(), len(sources))
	}
	for _, mode := range dedupModes {
		got, gotStats := streamSet(t, qs, doc, mode.opts)
		for i, src := range sources {
			want, wantStats := streamSolo(t, vitex.MustCompile(src), doc, mode.opts)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s/%s query %d %q:\nset  %+v\nsolo %+v\ndoc: %s", label, mode.name, i, src, got[i], want, doc)
			}
			if gotStats[i] != wantStats {
				t.Fatalf("%s/%s query %d %q stats:\nset  %+v\nsolo %+v", label, mode.name, i, src, gotStats[i], wantStats)
			}
		}
	}
}

// TestQueryDedupMatchesSolo: in random sets with forced duplicates, every
// query's output under every mode equals its solo output, and the set
// compiles one machine per branch of each distinct query.
func TestQueryDedupMatchesSolo(t *testing.T) {
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	rng := rand.New(rand.NewSource(20261017))
	docGens := []datagen.RandomTree{datagen.DefaultRandomTree, datagen.ChurnRandomTree}
	for round := 0; round < rounds; round++ {
		doc := docGens[round%len(docGens)].Generate(rng)
		sources, machines := dedupSources(rng, 6)
		qs, err := vitex.NewQuerySet(sources...)
		if err != nil {
			t.Fatal(err)
		}
		if live := qs.Metrics().Live; live != machines {
			t.Fatalf("round %d: %d live machines for %d queries, want %d (one per distinct branch)",
				round, live, len(sources), machines)
		}
		checkAgainstSolo(t, fmt.Sprintf("round %d", round), qs, sources, doc)
	}
}

// TestQueryDedupChurn: removing or replacing one sharer leaves the other
// sharer's output byte-identical, and removing the last sharer frees the
// machines.
func TestQueryDedupChurn(t *testing.T) {
	doc := datagen.Ticker{Trades: 60, Seed: 9}.String()
	const (
		single = "//trade[symbol='ACME']/price"
		union  = "//trade/price | //trade/volume"
		other  = "//trade/symbol"
	)
	for _, shared := range []string{single, union} {
		branches := strings.Count(shared, "|") + 1
		sources := []string{shared, other, vitex.MustCompile(shared).String(), shared}
		qs, err := vitex.NewQuerySet(sources...)
		if err != nil {
			t.Fatal(err)
		}
		machines := branches + 1
		if live := qs.Metrics().Live; live != machines {
			t.Fatalf("%q: %d live machines, want %d", shared, live, machines)
		}
		before := make(map[string][][]vitex.Result)
		for _, mode := range dedupModes {
			got, _ := streamSet(t, qs, doc, mode.opts)
			before[mode.name] = got
		}
		// sameAs checks query i still delivers what query was delivered
		// before the churn, in every mode.
		sameAs := func(step string, i, was int) {
			t.Helper()
			for _, mode := range dedupModes {
				got, _ := streamSet(t, qs, doc, mode.opts)
				if !reflect.DeepEqual(got[i], before[mode.name][was]) {
					t.Fatalf("%q after %s, %s: query %d changed\nnow    %+v\nbefore %+v",
						shared, step, mode.name, i, got[i], before[mode.name][was])
				}
			}
		}

		// Remove one sharer: the others keep their output and the machines.
		if err := qs.Remove(0); err != nil {
			t.Fatal(err)
		}
		sources = sources[1:] // other, canonical copy, shared
		sameAs("Remove(0)", 1, 2)
		sameAs("Remove(0)", 2, 3)
		if live := qs.Metrics().Live; live != machines {
			t.Fatalf("%q: Remove of one sharer changed live machines to %d", shared, live)
		}

		// Replace a sharer with an unrelated query: the remaining
		// sharer is untouched, and the replacement joins other's machine.
		if err := qs.Replace(1, vitex.MustCompile(other)); err != nil {
			t.Fatal(err)
		}
		sources[1] = other
		sameAs("Replace(1)", 2, 3)
		sameAs("Replace(1)", 1, 1)
		if live := qs.Metrics().Live; live != machines {
			t.Fatalf("%q: Replace into a standing query changed live machines to %d", shared, live)
		}
		checkAgainstSolo(t, shared+" after churn", qs, sources, doc)

		// Remove the last sharer: its machines go.
		if err := qs.Remove(2); err != nil {
			t.Fatal(err)
		}
		if live := qs.Metrics().Live; live != 1 {
			t.Fatalf("%q: removing the last sharer left %d live machines, want 1", shared, live)
		}
		checkAgainstSolo(t, shared+" after last removal", qs, sources[:2], doc)

		// Removing one of two sharers of other keeps its machine; removing
		// the second frees it.
		if err := qs.Remove(0); err != nil {
			t.Fatal(err)
		}
		if live := qs.Metrics().Live; live != 1 {
			t.Fatalf("removing one of two sharers of %q left %d live machines", other, live)
		}
		if err := qs.Remove(0); err != nil {
			t.Fatal(err)
		}
		if live := qs.Metrics().Live; live != 0 {
			t.Fatalf("empty set has %d live machines", live)
		}
	}
}

// TestQueryDedupConcurrentChurn: streams running while duplicates of a
// standing query come and go always deliver that query's solo output.
func TestQueryDedupConcurrentChurn(t *testing.T) {
	doc := datagen.Ticker{Trades: 40, Seed: 4}.String()
	anchor := "//trade[symbol='ACME']/price | //trade/volume"
	qs, err := vitex.NewQuerySet(anchor)
	if err != nil {
		t.Fatal(err)
	}
	var wants [][]vitex.Result
	for _, mode := range dedupModes {
		want, _ := streamSolo(t, vitex.MustCompile(anchor), doc, mode.opts)
		wants = append(wants, want)
	}
	var wg sync.WaitGroup
	var streams atomic.Int64
	errs := make(chan error, 2)
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				m := (n + w) % len(dedupModes)
				var got []vitex.Result
				_, err := qs.Stream(strings.NewReader(doc), dedupModes[m].opts, func(sr vitex.SetResult) error {
					if sr.QueryIndex == 0 {
						got = append(got, sr.Result)
					}
					return nil
				})
				if err == nil && !reflect.DeepEqual(got, wants[m]) {
					err = fmt.Errorf("%s: anchor query diverged under churn\ngot  %+v\nwant %+v", dedupModes[m].name, got, wants[m])
				}
				if err != nil {
					errs <- err
					return
				}
				streams.Add(1)
			}
		}(w)
	}
	// Churn until the streams have overlapped plenty of mutations.
	for i := 0; (i < 60 || streams.Load() < 40) && len(errs) == 0; i++ {
		if _, err := qs.Add(vitex.MustCompile(anchor)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := qs.Replace(qs.Len()-1, vitex.MustCompile("//trade/symbol")); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 1 {
			if err := qs.Remove(qs.Len() - 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for qs.Len() > 1 {
		if err := qs.Remove(qs.Len() - 1); err != nil {
			t.Fatal(err)
		}
	}
	if live := qs.Metrics().Live; live != 2 {
		t.Fatalf("after churn the anchor alone runs on %d machines, want 2", live)
	}
}
