package webdoc

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, html string) *Document {
	t.Helper()
	doc, err := Parse(html)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseSimpleTree(t *testing.T) {
	doc := mustParse(t, `<html><body><div class="main"><a href="/x">link</a></div></body></html>`)
	root := doc.Root
	if root.Tag != "#document" || len(root.Children) != 1 {
		t.Fatalf("root = %+v", root)
	}
	html := root.Children[0]
	if html.Tag != "html" || len(html.Children) != 1 {
		t.Fatalf("html node wrong: %+v", html)
	}
	body := html.Children[0]
	div := body.Children[0]
	if div.Tag != "div" {
		t.Fatalf("div = %+v", div)
	}
	if v, ok := div.Attr("class"); !ok || v != "main" {
		t.Fatalf("class attr = %q, %v", v, ok)
	}
	a := div.Children[0]
	if a.Tag != "a" {
		t.Fatalf("a = %+v", a)
	}
	if a.Children[0].Type != TextNode || a.Children[0].Text != "link" {
		t.Fatalf("text = %+v", a.Children[0])
	}
	if a.Parent != div || div.Parent != body {
		t.Fatal("parent links wrong")
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, `<div id=bare class='single' data-x="double" hidden>t</div>`)
	div := doc.Root.Children[0]
	cases := map[string]string{"id": "bare", "class": "single", "data-x": "double", "hidden": ""}
	for name, want := range cases {
		got, ok := div.Attr(name)
		if !ok || got != want {
			t.Errorf("attr %q = %q,%v want %q", name, got, ok, want)
		}
	}
	if _, ok := div.Attr("absent"); ok {
		t.Error("absent attribute must not be found")
	}
}

func TestVoidAndSelfClosing(t *testing.T) {
	doc := mustParse(t, `<div><img src="a.png"><br/><p>text</p></div>`)
	div := doc.Root.Children[0]
	if len(div.Children) != 3 {
		t.Fatalf("div children = %d, want 3 (img, br, p)", len(div.Children))
	}
	if div.Children[0].Tag != "img" || len(div.Children[0].Children) != 0 {
		t.Fatal("img must be childless")
	}
	if div.Children[2].Tag != "p" {
		t.Fatal("p must be sibling of img, not child")
	}
}

func TestCommentsAndDoctype(t *testing.T) {
	doc := mustParse(t, `<!DOCTYPE html><!-- a comment <div> --><p>x</p>`)
	if len(doc.Root.Children) != 1 || doc.Root.Children[0].Tag != "p" {
		t.Fatalf("root children = %+v", doc.Root.Children)
	}
}

func TestScriptStyleRawText(t *testing.T) {
	doc := mustParse(t, `<script>if (a < b) { x = "<div>"; }</script><div>real</div>`)
	if len(doc.Root.Children) != 2 {
		t.Fatalf("children = %d, want script + div", len(doc.Root.Children))
	}
	script := doc.Root.Children[0]
	if script.Tag != "script" || len(script.Children) != 1 {
		t.Fatalf("script = %+v", script)
	}
	if !strings.Contains(script.Children[0].Text, `"<div>"`) {
		t.Fatal("script body must be raw text")
	}
	if doc.Root.Children[1].Tag != "div" {
		t.Fatal("element after script lost")
	}
	// The close tag is found at its byte offset in the document, in
	// any case, even after bytes that are not valid UTF-8.
	for _, tc := range []struct{ html, text string }{
		{"<stYle>\xb8\xb8</stYle><p>", "\xb8\xb8"},
		{"<style>\xb8\xb8</STYLE ><p>", "\xb8\xb8"},
		{"<script>\u0130</script><p>", "\u0130"},
	} {
		doc := mustParse(t, tc.html)
		if len(doc.Root.Children) != 2 || doc.Root.Children[1].Tag != "p" {
			t.Errorf("Parse(%q): children %+v, want the raw-text element then p", tc.html, doc.Root.Children)
			continue
		}
		if raw := doc.Root.Children[0]; len(raw.Children) != 1 || raw.Children[0].Text != tc.text {
			t.Errorf("Parse(%q): raw text %+v, want %q", tc.html, raw.Children, tc.text)
		}
	}
}

func TestMismatchedCloseTags(t *testing.T) {
	// Stray close tag is dropped; mismatch pops to nearest match.
	doc := mustParse(t, `</p><div><span>x</div><p>y</p>`)
	kids := doc.Root.Children
	if len(kids) != 2 || kids[0].Tag != "div" || kids[1].Tag != "p" {
		t.Fatalf("root children = %+v", kids)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(`<div`); err == nil {
		t.Fatal("unterminated tag must error")
	}
	if _, err := Parse(`<div class="x>`); err == nil {
		t.Fatal("unterminated quote must error")
	}
	if _, err := Parse(`<div =bad>`); err == nil {
		t.Fatal("malformed attribute must error")
	}
}

func TestWhitespaceTextSkipped(t *testing.T) {
	doc := mustParse(t, "<div>\n   \n</div>")
	if len(doc.Root.Children[0].Children) != 0 {
		t.Fatal("whitespace-only text must not create nodes")
	}
}

func TestWalk(t *testing.T) {
	doc := mustParse(t, `<div><p>a</p><p>b</p></div>`)
	var tags []string
	doc.Root.Walk(func(n *Node) {
		if n.Type == ElementNode {
			tags = append(tags, n.Tag)
		}
	})
	want := []string{"#document", "div", "p", "p"}
	if strings.Join(tags, ",") != strings.Join(want, ",") {
		t.Fatalf("walk order = %v", tags)
	}
}

func TestExtractFeatures(t *testing.T) {
	html := `<html><body>
		<div class="a"><a href="/1">one</a></div>
		<div class="b"><a href="/2">two</a><a name="x">three</a></div>
		<span class="c">text</span>
	</body></html>`
	f := Extract(mustParse(t, html))
	if f.DivTags != 2 {
		t.Errorf("DivTags = %d, want 2", f.DivTags)
	}
	if f.ATags != 3 {
		t.Errorf("ATags = %d, want 3", f.ATags)
	}
	if f.HrefAttrs != 2 {
		t.Errorf("HrefAttrs = %d, want 2", f.HrefAttrs)
	}
	if f.ClassAttrs != 3 {
		t.Errorf("ClassAttrs = %d, want 3", f.ClassAttrs)
	}
	// elements: html, body, 2 div, 3 a, span = 8; text nodes: one, two, three, text = 4
	if f.Elements != 8 {
		t.Errorf("Elements = %d, want 8", f.Elements)
	}
	if f.DOMNodes != 12 {
		t.Errorf("DOMNodes = %d, want 12", f.DOMNodes)
	}
	if f.TextBytes != len("one")+len("two")+len("three")+len("text") {
		t.Errorf("TextBytes = %d", f.TextBytes)
	}
	if f.MaxDepth < 3 {
		t.Errorf("MaxDepth = %d", f.MaxDepth)
	}
}

func TestFeatureVector(t *testing.T) {
	f := Features{DOMNodes: 1, ClassAttrs: 2, HrefAttrs: 3, ATags: 4, DivTags: 5}
	v := f.Vector()
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vector = %v", v)
		}
	}
	if len(FeatureNames()) != 5 {
		t.Fatal("FeatureNames must list 5 entries")
	}
}

func TestDocumentBytes(t *testing.T) {
	src := `<div>hello</div>`
	doc := mustParse(t, src)
	if doc.Bytes != len(src) {
		t.Fatalf("Bytes = %d, want %d", doc.Bytes, len(src))
	}
}

func TestUnclosedScriptSwallowsRemainder(t *testing.T) {
	doc := mustParse(t, `<script>var x = 1;`)
	s := doc.Root.Children[0]
	if s.Tag != "script" || len(s.Children) != 1 {
		t.Fatalf("unclosed script = %+v", s)
	}
}

func TestDeepNesting(t *testing.T) {
	var b strings.Builder
	depth := 200
	for i := 0; i < depth; i++ {
		b.WriteString("<div>")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString("</div>")
	}
	f := Extract(mustParse(t, b.String()))
	if f.DivTags != depth {
		t.Fatalf("DivTags = %d, want %d", f.DivTags, depth)
	}
	if f.MaxDepth < depth {
		t.Fatalf("MaxDepth = %d, want >= %d", f.MaxDepth, depth)
	}
}
