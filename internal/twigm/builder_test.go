package twigm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sax"
	"repro/internal/xpath"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	q, err := xpath.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderNodeIndexes(t *testing.T) {
	p := compile(t, "//a[@id and text()]//b[c]/@href")
	if len(p.elems.byName("a")) != 1 || len(p.elems.byName("b")) != 1 || len(p.elems.byName("c")) != 1 {
		t.Fatalf("element index: %v", p.elems)
	}
	if len(p.attrs.byName("id")) != 1 || len(p.attrs.byName("href")) != 1 {
		t.Fatalf("attr index: %v", p.attrs)
	}
	if len(p.textNodes) != 1 {
		t.Fatalf("text nodes: %d", len(p.textNodes))
	}
	if len(p.wildElems) != 0 {
		t.Fatalf("wild: %d", len(p.wildElems))
	}
}

func TestBuilderWildcardIndex(t *testing.T) {
	p := compile(t, "//*[a]/*")
	if len(p.wildElems) != 2 {
		t.Fatalf("wildcards: %d", len(p.wildElems))
	}
}

func TestBuilderChildBits(t *testing.T) {
	p := compile(t, "//a[x][y]//z")
	root := p.root
	if len(root.children) != 3 { // x, y, z
		t.Fatalf("children: %d", len(root.children))
	}
	seen := map[int]bool{}
	for _, c := range root.children {
		if seen[c.childIdx] {
			t.Fatalf("duplicate childIdx %d", c.childIdx)
		}
		seen[c.childIdx] = true
		if c.parent != root {
			t.Fatal("parent link broken")
		}
	}
}

func TestBuilderOutputAndSpine(t *testing.T) {
	p := compile(t, "//a[x]//b/c")
	var out, spineCount int
	for _, m := range p.nodes {
		if m.isOutput {
			out++
			if m.name != "c" {
				t.Fatalf("output node is %q", m.name)
			}
		}
		if m.spine {
			spineCount++
		}
	}
	if out != 1 || spineCount != 3 {
		t.Fatalf("out=%d spine=%d", out, spineCount)
	}
}

func TestCondEvalAndOr(t *testing.T) {
	// //a[(x or y) and z]: flag bits x=0, y=1, z=2.
	p := compile(t, "//a[(x or y) and z]")
	c := p.root.cond
	noText := &entry{}
	cases := []struct {
		flags uint64
		want  bool
	}{
		{0b000, false},
		{0b001, false}, // x only
		{0b100, false}, // z only
		{0b101, true},  // x,z
		{0b110, true},  // y,z
		{0b111, true},
		{0b011, false}, // x,y no z
	}
	for _, tc := range cases {
		if got := c.eval(tc.flags, noText, false); got != tc.want {
			t.Errorf("eval(%03b) = %v, want %v", tc.flags, got, tc.want)
		}
	}
}

func TestCondSelfDeferred(t *testing.T) {
	p := compile(t, "//a[.='v']")
	c := p.root.cond
	val := &entry{textBuf: []byte("v")}
	if c.eval(0, val, false) {
		t.Fatal("self comparison must be unknown before finalization")
	}
	if !c.eval(0, val, true) {
		t.Fatal("self comparison must hold at pop")
	}
	bad := &entry{textBuf: []byte("w")}
	if c.eval(0, bad, true) {
		t.Fatal("self comparison must fail on mismatch")
	}
}

func TestDeadAtPushAttrOnly(t *testing.T) {
	// [@id='1'] is final at push; [b] is not.
	p := compile(t, "//a[@id='1']")
	if !p.root.prunable {
		t.Fatal("attr-only predicate should be prunable")
	}
	if !p.root.cond.deadAtPush(0) {
		t.Fatal("missing attr flag should be dead at push")
	}
	if p.root.cond.deadAtPush(1) {
		t.Fatal("present attr flag should survive")
	}

	p2 := compile(t, "//a[b]")
	if p2.root.prunable {
		t.Fatal("element predicate is not decidable at push")
	}
	if p2.root.cond.deadAtPush(0) {
		t.Fatal("element predicate may still arrive")
	}
}

func TestDeadAtPushOrRescues(t *testing.T) {
	// [@id or b]: even with the attr missing, b may arrive later.
	p := compile(t, "//a[@id or b]")
	if p.root.cond.deadAtPush(0) {
		t.Fatal("or-branch must keep the entry alive")
	}
	// [@id and b]: missing attr is fatal regardless of b.
	p2 := compile(t, "//a[@id and b]")
	if !p2.root.cond.deadAtPush(0) {
		t.Fatal("and-branch with dead attr leaf must prune")
	}
}

func TestDescendantAttrNotFinalAtPush(t *testing.T) {
	// [.//@id]: a descendant may bring the attribute later.
	p := compile(t, "//a[.//@id]")
	if p.root.prunable {
		t.Fatal("descendant-axis attribute is not final at push")
	}
	if p.root.cond.deadAtPush(0) {
		t.Fatal("must not prune")
	}
}

func TestCompatRanges(t *testing.T) {
	p := compile(t, "//a/b")   // child element
	pd := compile(t, "//a//b") // descendant element
	pa := compile(t, "//a/@x") // child attr
	pda := compile(t, "//a//@x")
	pt := compile(t, "//a/text()")

	check := func(m *node, level, wantLo, wantHi int) {
		t.Helper()
		lo, hi := compatRange(m, level)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("compatRange(%s kind=%v axis=%v, %d) = [%d,%d], want [%d,%d]",
				m.name, m.kind, m.axis, level, lo, hi, wantLo, wantHi)
		}
	}
	check(p.root.children[0], 5, 4, 4)   // /b at level 5: parent exactly 4
	check(pd.root.children[0], 5, 0, 4)  // //b: any proper ancestor
	check(pa.root.children[0], 5, 5, 5)  // /@x: the owner itself
	check(pda.root.children[0], 5, 0, 5) // //@x: self-or-ancestor
	check(pt.root.children[0], 5, 4, 4)  // /text() at depth 5: parent 4
}

func TestMachineSizesAcrossFragment(t *testing.T) {
	for _, tc := range []struct {
		src  string
		size int
	}{
		{"//a", 1},
		{"/a/b/c/d", 4},
		{"//a[b][c][d]", 4},
		{"//a[b/c/d]", 4},
		{"//a[.='x']", 1}, // self comparisons are conditions, not nodes
		{"//a[text()='x']", 2},
		{"//a/@id", 2},
	} {
		p := compile(t, tc.src)
		if p.NumNodes() != tc.size {
			t.Errorf("%s: %d nodes, want %d", tc.src, p.NumNodes(), tc.size)
		}
	}
}

func TestDescribeEdges(t *testing.T) {
	p := compile(t, "/a/b//c")
	d := p.Describe()
	lines := strings.Split(strings.TrimSpace(d), "\n")
	if len(lines) != 3 {
		t.Fatalf("describe:\n%s", d)
	}
	if !strings.HasPrefix(lines[0], "-a") || !strings.Contains(lines[1], "-b") || !strings.Contains(lines[2], "=c *") {
		t.Fatalf("describe:\n%s", d)
	}
}

func TestTrailingComparisonOnPredicatePath(t *testing.T) {
	// [b/c='x']: c carries the comparison, so c needs text and is a
	// value node.
	p := compile(t, "//a[b/c='x']")
	var cNode *node
	for _, m := range p.nodes {
		if m.name == "c" {
			cNode = m
		}
	}
	if cNode == nil || !cNode.needsText {
		t.Fatalf("c node: %+v", cNode)
	}
	if len(p.valueNodes) != 1 || p.valueNodes[0] != cNode {
		t.Fatalf("valueNodes: %v", p.valueNodes)
	}
}

func TestAttrCmpInline(t *testing.T) {
	p := compile(t, "//a[@id='7']")
	attr := p.attrs.byName("id")[0]
	if attr.cmp == nil || !attr.cmp.Eval("7") || attr.cmp.Eval("8") {
		t.Fatalf("attr cmp: %+v", attr.cmp)
	}
}

// A program compiled into a crowded shared symbol table gets dispatch
// entries for its own names only, sorted by ID.
func TestDispatchSizedToOwnNames(t *testing.T) {
	syms := sax.NewSymbols()
	for i := 0; i < 10000; i++ {
		syms.Intern(fmt.Sprintf("unrelated%d", i))
	}
	p, err := CompileWith(xpath.MustParse("//a[@id and b]//c[@href]/d"), syms)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.elems) != 4 || len(p.attrs) != 2 {
		t.Fatalf("dispatch entries: %d elements, %d attributes; want 4 and 2", len(p.elems), len(p.attrs))
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if nodes := p.elems.byID(syms.ID(name)); len(nodes) != 1 || nodes[0].local != name {
			t.Fatalf("byID(%s) = %v", name, nodes)
		}
	}
	if ids := p.ElemNameIDs(); len(ids) != 4 {
		t.Fatalf("ElemNameIDs = %v", ids)
	}
	if ids := p.AttrNameIDs(); len(ids) != 2 {
		t.Fatalf("AttrNameIDs = %v", ids)
	}
	if p.elems.byID(syms.ID("unrelated7")) != nil || p.elems.byID(sax.SymUnknown) != nil {
		t.Fatal("an unrelated name resolved to machine nodes")
	}

	for i := 1; i < len(p.elems); i++ {
		if p.elems[i-1].id >= p.elems[i].id {
			t.Fatalf("dispatch table not sorted by ID at %d: %v", i, p.elems)
		}
	}
}
