package webdoc

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseCSSBasics(t *testing.T) {
	sheet := ParseCSS(`
		.card { margin: 4px; padding: 2px; }
		div, p.note { color: red }
		#main { width: 100% }
		* { box-sizing: border-box }
	`)
	if len(sheet.Rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(sheet.Rules))
	}
	r0 := sheet.Rules[0]
	if len(r0.Selectors) != 1 || r0.Selectors[0].Classes[0] != "card" || r0.Declarations != 2 {
		t.Fatalf("rule0 = %+v", r0)
	}
	r1 := sheet.Rules[1]
	if len(r1.Selectors) != 2 {
		t.Fatalf("rule1 selectors = %+v", r1.Selectors)
	}
	if r1.Selectors[0].Tag != "div" {
		t.Fatalf("rule1 sel0 = %+v", r1.Selectors[0])
	}
	if r1.Selectors[1].Tag != "p" || r1.Selectors[1].Classes[0] != "note" {
		t.Fatalf("rule1 sel1 = %+v", r1.Selectors[1])
	}
	if sheet.Rules[2].Selectors[0].ID != "main" {
		t.Fatalf("rule2 = %+v", sheet.Rules[2])
	}
	if sel := sheet.Rules[3].Selectors[0]; sel.Tag != "" || len(sel.Classes) != 0 || sel.ID != "" {
		t.Fatalf("rule3 must be universal")
	}
}

func TestParseCSSCombinatorsAndComments(t *testing.T) {
	sheet := ParseCSS(`
		/* header rules */
		nav > a.link { color: blue }
		.outer .inner { margin: 0 }
		a:hover { text-decoration: underline }
	`)
	if len(sheet.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(sheet.Rules))
	}
	// Rightmost compounds: a.link, .inner, a.
	if sheet.Rules[0].Selectors[0].Tag != "a" || sheet.Rules[0].Selectors[0].Classes[0] != "link" {
		t.Fatalf("combinator compound = %+v", sheet.Rules[0].Selectors[0])
	}
	if sheet.Rules[1].Selectors[0].Classes[0] != "inner" {
		t.Fatalf("descendant compound = %+v", sheet.Rules[1].Selectors[0])
	}
	if sheet.Rules[2].Selectors[0].Tag != "a" || len(sheet.Rules[2].Selectors[0].Classes) != 0 {
		t.Fatalf("pseudo-class must be stripped: %+v", sheet.Rules[2].Selectors[0])
	}
}

func TestParseCSSAtRulesAndMalformed(t *testing.T) {
	sheet := ParseCSS(`
		@import url("x.css");
		@media screen { .hidden { display: none } }
		.ok { color: green }
		garbage without braces
	`)
	// @import skipped, @media block skipped wholesale, .ok parsed,
	// trailing garbage dropped.
	if len(sheet.Rules) != 1 {
		t.Fatalf("rules = %d, want 1 (%+v)", len(sheet.Rules), sheet.Rules)
	}
	if sheet.Rules[0].Selectors[0].Classes[0] != "ok" {
		t.Fatalf("rule = %+v", sheet.Rules[0])
	}
	// Unterminated comment / block do not loop forever.
	if got := ParseCSS("/* unterminated"); len(got.Rules) != 0 {
		t.Fatal("unterminated comment must yield nothing")
	}
	if got := ParseCSS(".x { color: red"); len(got.Rules) != 1 {
		t.Fatal("unterminated block consumes remainder as one rule")
	}
}

// TestParseCSSUnclosedBlock checks that a block still open at the end
// of the input takes the whole remainder as its body.
func TestParseCSSUnclosedBlock(t *testing.T) {
	for _, tc := range []struct {
		css   string
		rules int
		decls int // of the last rule
	}{
		{"{", 0, 0},
		{"a{", 1, 0},
		{"a{b{}", 1, 0},
		{"a{b:1", 1, 1},
		{"a{b:1} c{d:2;e:3", 2, 2},
		{"@media screen {", 0, 0},
	} {
		sheet := ParseCSS(tc.css)
		if len(sheet.Rules) != tc.rules {
			t.Errorf("ParseCSS(%q): %d rules, want %d", tc.css, len(sheet.Rules), tc.rules)
			continue
		}
		if tc.rules > 0 {
			if got := sheet.Rules[tc.rules-1].Declarations; got != tc.decls {
				t.Errorf("ParseCSS(%q): last rule has %d declarations, want %d", tc.css, got, tc.decls)
			}
		}
	}
}

func TestSelectorMatches(t *testing.T) {
	doc := mustParse(t, `<div id="hero" class="card wide"><p class="note">x</p></div>`)
	div := doc.Root.Children[0]
	p := div.Children[0]
	cases := []struct {
		sel  Selector
		node *Node
		want bool
	}{
		{Selector{Tag: "div"}, div, true},
		{Selector{Tag: "p"}, div, false},
		{Selector{Classes: []string{"card"}}, div, true},
		{Selector{Classes: []string{"card", "wide"}}, div, true},
		{Selector{Classes: []string{"card", "narrow"}}, div, false},
		{Selector{ID: "hero"}, div, true},
		{Selector{ID: "hero"}, p, false},
		{Selector{Tag: "div", Classes: []string{"wide"}, ID: "hero"}, div, true},
		{Selector{}, p, true}, // universal
		{Selector{Classes: []string{"note"}}, p, true},
	}
	for i, tc := range cases {
		if got := tc.sel.Matches(tc.node); got != tc.want {
			t.Errorf("case %d: %+v matches=%v, want %v", i, tc.sel, got, tc.want)
		}
	}
	if (Selector{Tag: "div"}).Matches(nil) {
		t.Error("nil node must not match")
	}
	if (Selector{Classes: []string{"x"}}).Matches(&Node{Type: TextNode}) {
		t.Error("text node must not match")
	}
}

func TestRuleIndexMatchDocument(t *testing.T) {
	html := `<body>
		<div class="a">one</div>
		<div class="b">two</div>
		<p class="a">three</p>
		<span>four</span>
	</body>`
	doc := mustParse(t, html)
	sheet := ParseCSS(`
		.a { margin: 0; padding: 0 }
		div { color: red }
		* { box-sizing: border-box }
	`)
	idx := NewRuleIndex(sheet)
	st := idx.MatchDocument(doc)
	if st.ElementsVisited != 5 { // body, 2 div, p, span
		t.Fatalf("elements = %d, want 5", st.ElementsVisited)
	}
	// Matches: .a matches div.a and p.a (2); div matches both divs (2);
	// * matches all 5.
	if st.Matches != 2+2+5 {
		t.Fatalf("matches = %d, want 9", st.Matches)
	}
	// Declarations: .a has 2 decls x 2 matches + div 1 x 2 + * 1 x 5.
	if st.Declarations != 4+2+5 {
		t.Fatalf("declarations = %d, want 11", st.Declarations)
	}
	if st.CandidateTests < st.Matches {
		t.Fatalf("candidate tests %d < matches %d", st.CandidateTests, st.Matches)
	}
}

func TestRuleIndexSelectivity(t *testing.T) {
	// The index must not test class rules against elements without the
	// class: candidate tests stay far below rules x elements.
	var css, html strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&css, ".c%d { margin: %dpx }\n", i, i)
	}
	html.WriteString("<body>")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&html, `<div class="c%d">x</div>`, i)
	}
	html.WriteString("</body>")
	doc := mustParse(t, html.String())
	idx := NewRuleIndex(ParseCSS(css.String()))
	st := idx.MatchDocument(doc)
	if st.Matches != 100 {
		t.Fatalf("matches = %d, want 100 (one rule per element)", st.Matches)
	}
	if st.CandidateTests > 150 {
		t.Fatalf("candidate tests = %d; index is not selective", st.CandidateTests)
	}
}

func TestStyleText(t *testing.T) {
	doc := mustParse(t, `<head><style>.a{x:1}</style></head><body><style>.b{y:2}</style></body>`)
	got := StyleText(doc)
	if !strings.Contains(got, ".a{x:1}") || !strings.Contains(got, ".b{y:2}") {
		t.Fatalf("StyleText = %q", got)
	}
	empty := mustParse(t, `<div>no styles</div>`)
	if StyleText(empty) != "" {
		t.Fatal("no styles must yield empty text")
	}
}

func TestMatchDocumentNil(t *testing.T) {
	idx := NewRuleIndex(ParseCSS(".a{x:1}"))
	if st := idx.MatchDocument(nil); st.ElementsVisited != 0 {
		t.Fatal("nil document must be empty stats")
	}
}

func TestParseCSSOnGeneratedCorpusShapes(t *testing.T) {
	// The webgen corpus emits ".cN{...}" rules; the parser must read
	// them all back.
	css := ""
	for i := 0; i < 50; i++ {
		css += fmt.Sprintf(".c%d{margin:%dpx;padding:%dpx;color:#a%05x}\n", i, i%24, i%16, i)
	}
	sheet := ParseCSS(css)
	if len(sheet.Rules) != 50 {
		t.Fatalf("rules = %d, want 50", len(sheet.Rules))
	}
	for i, r := range sheet.Rules {
		if r.Declarations != 3 {
			t.Fatalf("rule %d decls = %d, want 3", i, r.Declarations)
		}
	}
}
