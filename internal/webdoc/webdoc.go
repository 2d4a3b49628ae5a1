// Package webdoc implements the web-page document model the rendering
// engine operates on: a small HTML tokenizer, a DOM tree builder, and
// extraction of the five page-complexity features the DORA paper uses
// as model inputs (Table I, after Zhu et al.): DOM tree node count,
// class attribute count, href attribute count, and the counts of <a>
// and <div> tags.
package webdoc

import (
	"errors"
	"fmt"
	"strings"
)

// Attr is one name="value" attribute.
type Attr struct {
	Name  string
	Value string
}

// NodeType discriminates DOM nodes.
type NodeType int

const (
	// ElementNode is a tag with optional attributes and children.
	ElementNode NodeType = iota
	// TextNode holds character data.
	TextNode
)

// Node is a DOM tree node.
type Node struct {
	Type     NodeType
	Tag      string // lowercase tag name for elements
	Text     string // character data for text nodes
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Walk visits n and all descendants in document order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Document is a parsed page.
type Document struct {
	Root *Node // synthetic #document element
	// Bytes is the size of the source HTML.
	Bytes int
}

// voidElements never have children (HTML5 void element set).
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// Parse tokenizes and tree-builds an HTML document. The parser is
// intentionally forgiving, like a browser: unknown or mismatched close
// tags pop to the nearest matching open element or are dropped;
// comments and doctype declarations are skipped.
func Parse(html string) (*Document, error) {
	root := &Node{Type: ElementNode, Tag: "#document"}
	stack := []*Node{root}
	top := func() *Node { return stack[len(stack)-1] }

	i, n := 0, len(html)
	flushText := func(s string) {
		if strings.TrimSpace(s) == "" {
			return
		}
		t := &Node{Type: TextNode, Text: s, Parent: top()}
		top().Children = append(top().Children, t)
	}

	for i < n {
		lt := strings.IndexByte(html[i:], '<')
		if lt < 0 {
			flushText(html[i:])
			break
		}
		if lt > 0 {
			flushText(html[i : i+lt])
		}
		i += lt
		// Comment?
		if strings.HasPrefix(html[i:], "<!--") {
			end := strings.Index(html[i+4:], "-->")
			if end < 0 {
				break // unterminated comment consumes the rest
			}
			i += 4 + end + 3
			continue
		}
		// Doctype / processing instruction?
		if i+1 < n && (html[i+1] == '!' || html[i+1] == '?') {
			gt := strings.IndexByte(html[i:], '>')
			if gt < 0 {
				break
			}
			i += gt + 1
			continue
		}
		gt := strings.IndexByte(html[i:], '>')
		if gt < 0 {
			return nil, fmt.Errorf("webdoc: unterminated tag at offset %d", i)
		}
		raw := html[i+1 : i+gt]
		i += gt + 1

		if strings.HasPrefix(raw, "/") {
			// Close tag: pop to the matching element if present.
			name := strings.ToLower(strings.TrimSpace(raw[1:]))
			for d := len(stack) - 1; d >= 1; d-- {
				if stack[d].Tag == name {
					stack = stack[:d]
					break
				}
			}
			continue
		}

		selfClose := strings.HasSuffix(raw, "/")
		if selfClose {
			raw = strings.TrimSuffix(raw, "/")
		}
		name, attrs, err := parseTag(raw)
		if err != nil {
			return nil, err
		}
		if name == "" {
			continue // stray "<>"
		}
		el := &Node{Type: ElementNode, Tag: name, Attrs: attrs, Parent: top()}
		top().Children = append(top().Children, el)
		if !selfClose && !voidElements[name] {
			stack = append(stack, el)
		}
		// Raw-text elements: consume until the matching close tag.
		if name == "script" || name == "style" {
			closeTag := "</" + name
			idx := indexASCIIFold(html[i:], closeTag)
			if idx < 0 {
				// Unclosed script/style swallows the document remainder.
				el.Children = append(el.Children, &Node{Type: TextNode, Text: html[i:], Parent: el})
				i = n
			} else {
				if idx > 0 {
					el.Children = append(el.Children, &Node{Type: TextNode, Text: html[i : i+idx], Parent: el})
				}
				gt2 := strings.IndexByte(html[i+idx:], '>')
				if gt2 < 0 {
					i = n
				} else {
					i += idx + gt2 + 1
				}
			}
			if !selfClose {
				// Pop the raw-text element we pushed above.
				if top() == el {
					stack = stack[:len(stack)-1]
				}
			}
		}
	}
	return &Document{Root: root, Bytes: n}, nil
}

// parseTag splits "div class='x' href=y" into name and attributes.
func parseTag(raw string) (string, []Attr, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", nil, nil
	}
	// Tag name runs to the first whitespace.
	end := strings.IndexAny(raw, " \t\r\n")
	if end < 0 {
		return strings.ToLower(raw), nil, nil
	}
	name := strings.ToLower(raw[:end])
	rest := raw[end:]
	var attrs []Attr
	i, n := 0, len(rest)
	for i < n {
		for i < n && isSpace(rest[i]) {
			i++
		}
		if i >= n {
			break
		}
		start := i
		for i < n && rest[i] != '=' && !isSpace(rest[i]) {
			i++
		}
		aname := strings.ToLower(rest[start:i])
		if aname == "" {
			return "", nil, errors.New("webdoc: malformed attribute")
		}
		for i < n && isSpace(rest[i]) {
			i++
		}
		if i >= n || rest[i] != '=' {
			attrs = append(attrs, Attr{Name: aname}) // bare attribute
			continue
		}
		i++ // consume '='
		for i < n && isSpace(rest[i]) {
			i++
		}
		var aval string
		if i < n && (rest[i] == '"' || rest[i] == '\'') {
			q := rest[i]
			i++
			close := strings.IndexByte(rest[i:], q)
			if close < 0 {
				return "", nil, errors.New("webdoc: unterminated attribute quote")
			}
			aval = rest[i : i+close]
			i += close + 1
		} else {
			start := i
			for i < n && !isSpace(rest[i]) {
				i++
			}
			aval = rest[start:i]
		}
		attrs = append(attrs, Attr{Name: aname, Value: aval})
	}
	return name, attrs, nil
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

// indexASCIIFold returns the byte offset in s of the first match of
// lower, a lowercase ASCII string, with ASCII letters of s matching in
// either case, or -1. Searching strings.ToLower(s) instead gives an
// offset into the lowered copy, which is longer than s wherever s holds
// invalid UTF-8 or a letter whose lowercase encodes in more bytes.
func indexASCIIFold(s, lower string) int {
	for i := 0; i+len(lower) <= len(s); i++ {
		j := 0
		for j < len(lower) {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != lower[j] {
				break
			}
			j++
		}
		if j == len(lower) {
			return i
		}
	}
	return -1
}

// Features are the paper's five page-complexity model inputs
// (Table I, X1..X5) plus auxiliary structure metrics the rendering
// engine uses to derive work.
type Features struct {
	DOMNodes   int // X1: element + text nodes (excluding #document)
	ClassAttrs int // X2: number of class attributes
	HrefAttrs  int // X3: number of href attributes
	ATags      int // X4: number of <a> elements
	DivTags    int // X5: number of <div> elements

	// Auxiliary (not model inputs; drive the render-work derivation).
	TextBytes int // character data volume
	MaxDepth  int // tree depth
	Elements  int // element nodes only
}

// Vector returns the five model features in Table I order.
func (f Features) Vector() []float64 {
	return []float64{
		float64(f.DOMNodes),
		float64(f.ClassAttrs),
		float64(f.HrefAttrs),
		float64(f.ATags),
		float64(f.DivTags),
	}
}

// FeatureNames are the Table I labels for Vector's entries.
func FeatureNames() []string {
	return []string{"dom_nodes", "class_attrs", "href_attrs", "a_tags", "div_tags"}
}

// Extract computes the complexity features of a parsed document.
func Extract(doc *Document) Features {
	var f Features
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if depth > f.MaxDepth {
			f.MaxDepth = depth
		}
		if n.Tag != "#document" {
			f.DOMNodes++
		}
		switch n.Type {
		case ElementNode:
			if n.Tag != "#document" {
				f.Elements++
			}
			switch n.Tag {
			case "a":
				f.ATags++
			case "div":
				f.DivTags++
			}
			for _, a := range n.Attrs {
				switch a.Name {
				case "class":
					f.ClassAttrs++
				case "href":
					f.HrefAttrs++
				}
			}
		case TextNode:
			f.TextBytes += len(n.Text)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(doc.Root, 0)
	return f
}
