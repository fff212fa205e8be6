package xpath

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// unionString prints a parsed union the way vitex.Query.String does.
func unionString(qs []*Query) string {
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = q.String()
	}
	return strings.Join(parts, " | ")
}

// sameTrees reports whether two parsed unions are the same trees, ignoring
// the source text they were parsed from.
func sameTrees(a, b []*Query) bool {
	strip := func(qs []*Query) []Query {
		out := make([]Query, len(qs))
		for i, q := range qs {
			out[i] = *q
			out[i].Source = ""
		}
		return out
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

// Property: the canonical form is a faithful identity for a query. It parses
// back to the same trees (so it prints identically again), and two queries
// that print the same string are the same trees. A query set keys machine
// sharing on it, so a collision would hand one query another's results.
func TestCanonicalFormIsIdentity(t *testing.T) {
	sources := []string{
		`//a[. = "it's"]`,
		`//a[b = "x' or b = 'y"]`,
		`//a[b = 'x' or b = 'y']`,
		`//a[@k != "'"]`,
		`//a[text() = '"quoted"']`,
		`//a[c][(a and b)]`,
		`//a[c and a and b]`,
		`//a[(b or c) or d]`,
		`//a[b or c or d]`,
		`//a[(b or c) and d]`,
		`//a[b = 01]`,
		`//a[b = 1]`,
		`//a[b > 1000000000000000000000]`,
		`//a[b < -.5]`,
		`//a[@id = '']`,
		`//a | //b`,
		`//b | //a`,
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		sources = append(sources, datagen.DefaultQueryGen.Generate(rng))
	}
	byForm := map[string][]*Query{}
	for _, src := range sources {
		qs, err := ParseUnion(src)
		if err != nil {
			t.Fatalf("%q does not parse: %v", src, err)
		}
		form := unionString(qs)
		again, err := ParseUnion(form)
		if err != nil {
			t.Fatalf("canonical %q (from %q) does not parse: %v", form, src, err)
		}
		if got := unionString(again); got != form {
			t.Fatalf("canonical form of %q not a fixed point: %q -> %q", src, form, got)
		}
		if !sameTrees(qs, again) {
			t.Fatalf("%q: canonical %q parses to different trees", src, form)
		}
		if prev, ok := byForm[form]; ok && !sameTrees(prev, qs) {
			t.Fatalf("different queries print the same canonical form %q (%q and %q)", form, prev[0].Source, src)
		}
		byForm[form] = qs
	}
	for _, pair := range [][2]string{
		{`//a[b = "x' or b = 'y"]`, `//a[b = 'x' or b = 'y']`},
		{`//a[c][(a and b)]`, `//a[c and a and b]`},
		{`//a[(b or c) or d]`, `//a[b or c or d]`},
	} {
		x, y := MustParse(pair[0]).String(), MustParse(pair[1]).String()
		if x == y {
			t.Fatalf("%q and %q both print as %q", pair[0], pair[1], x)
		}
	}
	if len(byForm) < 1000 {
		t.Fatalf("only %d distinct forms; the generator is not exercising the printer", len(byForm))
	}
}
