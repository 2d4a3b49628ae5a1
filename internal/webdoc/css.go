// CSS support: a small stylesheet parser and selector matcher. The
// rendering engine uses real rule-match statistics (how many rules each
// element matches) to derive style-resolution work, the way an actual
// browser's style pass cost scales with selector matching.
package webdoc

import (
	"strings"
)

// Selector is one compound selector: optional tag, classes, and id
// (e.g. "div.card.wide#main"). Empty fields match anything.
type Selector struct {
	Tag     string
	Classes []string
	ID      string
}

// Universal reports whether the selector matches every element.
func (s Selector) Universal() bool {
	return s.Tag == "" && len(s.Classes) == 0 && s.ID == ""
}

// Matches reports whether the selector matches the element node.
func (s Selector) Matches(n *Node) bool {
	if n == nil || n.Type != ElementNode {
		return false
	}
	if s.Tag != "" && s.Tag != n.Tag {
		return false
	}
	if s.ID != "" {
		id, ok := n.Attr("id")
		if !ok || id != s.ID {
			return false
		}
	}
	if len(s.Classes) > 0 {
		cls, _ := n.Attr("class")
		if cls == "" {
			return false
		}
		have := strings.Fields(cls)
		for _, want := range s.Classes {
			found := false
			for _, h := range have {
				if h == want {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// Rule is one CSS rule: a selector list and its declarations.
type Rule struct {
	Selectors    []Selector
	Declarations int // number of property declarations in the block
}

// Stylesheet is a parsed CSS document.
type Stylesheet struct {
	Rules []Rule
}

// ParseCSS parses a (simplified) stylesheet: comma-separated compound
// selectors followed by a brace-delimited declaration block. Combinator
// selectors (descendant/child) are treated as their rightmost compound
// part, which is what drives match cost in real engines. Comments and
// at-rules are skipped. The parser never fails; malformed fragments are
// dropped, as browsers do.
func ParseCSS(css string) *Stylesheet {
	sheet := &Stylesheet{}
	i, n := 0, len(css)
	for i < n {
		// Skip whitespace and comments.
		for i < n {
			switch {
			case isSpace(css[i]):
				i++
			case strings.HasPrefix(css[i:], "/*"):
				end := strings.Index(css[i+2:], "*/")
				if end < 0 {
					return sheet
				}
				i += 2 + end + 2
			default:
				goto body
			}
		}
	body:
		if i >= n {
			break
		}
		// At-rule: skip to matching semicolon or block.
		if css[i] == '@' {
			brace := strings.IndexByte(css[i:], '{')
			semi := strings.IndexByte(css[i:], ';')
			if semi >= 0 && (brace < 0 || semi < brace) {
				i += semi + 1
				continue
			}
			if brace < 0 {
				break
			}
			i += brace
			blockLen, _ := skipBlock(css[i:])
			i += blockLen
			continue
		}
		open := strings.IndexByte(css[i:], '{')
		if open < 0 {
			break
		}
		selText := css[i : i+open]
		i += open
		blockLen, closed := skipBlock(css[i:])
		block := css[i+1 : i+blockLen]
		if closed {
			block = block[:len(block)-1]
		}
		i += blockLen

		var sels []Selector
		for _, part := range strings.Split(selText, ",") {
			if sel, ok := parseCompound(part); ok {
				sels = append(sels, sel)
			}
		}
		if len(sels) == 0 {
			continue
		}
		decls := 0
		for _, d := range strings.Split(block, ";") {
			if strings.Contains(d, ":") {
				decls++
			}
		}
		sheet.Rules = append(sheet.Rules, Rule{Selectors: sels, Declarations: decls})
	}
	return sheet
}

// skipBlock returns the length of the brace-balanced block starting at
// s[0] == '{' (including both braces) and true. A block that never
// closes consumes the remainder, and skipBlock reports false.
func skipBlock(s string) (n int, closed bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return i + 1, true
			}
		}
	}
	return len(s), false
}

// parseCompound parses the rightmost compound of a selector.
func parseCompound(s string) (Selector, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Selector{}, false
	}
	// Rightmost compound: after the last combinator.
	if idx := strings.LastIndexAny(s, " \t>+~"); idx >= 0 {
		s = s[idx+1:]
	}
	if s == "" {
		return Selector{}, false
	}
	if s == "*" {
		return Selector{}, true
	}
	var sel Selector
	// Strip pseudo-classes/elements: they do not affect match volume.
	if idx := strings.IndexByte(s, ':'); idx >= 0 {
		s = s[:idx]
	}
	for s != "" {
		switch s[0] {
		case '.':
			end := tokenEnd(s[1:])
			if end == 0 {
				return Selector{}, false
			}
			sel.Classes = append(sel.Classes, s[1:1+end])
			s = s[1+end:]
		case '#':
			end := tokenEnd(s[1:])
			if end == 0 {
				return Selector{}, false
			}
			sel.ID = s[1 : 1+end]
			s = s[1+end:]
		case '[':
			// Attribute selectors: treated as universal contribution.
			close := strings.IndexByte(s, ']')
			if close < 0 {
				return sel, true
			}
			s = s[close+1:]
		default:
			end := tokenEnd(s)
			if end == 0 {
				return Selector{}, false
			}
			sel.Tag = strings.ToLower(s[:end])
			s = s[end:]
		}
	}
	return sel, true
}

func tokenEnd(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '-' || c == '_' || c >= '0' && c <= '9' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return i
		}
	}
	return len(s)
}

// RuleIndex accelerates matching the way real style engines do: rules
// are bucketed by their rightmost class, id, or tag, so each element
// only tests the buckets it could possibly match plus the universal
// set.
type RuleIndex struct {
	byClass   map[string][]int
	byID      map[string][]int
	byTag     map[string][]int
	universal []int
	rules     []Rule
}

// NewRuleIndex builds the index for a stylesheet.
func NewRuleIndex(sheet *Stylesheet) *RuleIndex {
	idx := &RuleIndex{
		byClass: map[string][]int{},
		byID:    map[string][]int{},
		byTag:   map[string][]int{},
		rules:   sheet.Rules,
	}
	for ri, r := range sheet.Rules {
		for _, sel := range r.Selectors {
			switch {
			case len(sel.Classes) > 0:
				idx.byClass[sel.Classes[0]] = append(idx.byClass[sel.Classes[0]], ri)
			case sel.ID != "":
				idx.byID[sel.ID] = append(idx.byID[sel.ID], ri)
			case sel.Tag != "":
				idx.byTag[sel.Tag] = append(idx.byTag[sel.Tag], ri)
			default:
				idx.universal = append(idx.universal, ri)
			}
		}
	}
	return idx
}

// MatchStats summarizes a matching pass over a document.
type MatchStats struct {
	ElementsVisited int
	CandidateTests  int // selector tests performed (indexed candidates)
	Matches         int // element-rule matches
	Declarations    int // declarations applied across all matches
}

// MatchDocument runs selector matching over every element of the
// document, the core of the browser's style-resolution pass.
func (idx *RuleIndex) MatchDocument(doc *Document) MatchStats {
	var st MatchStats
	if doc == nil || doc.Root == nil {
		return st
	}
	doc.Root.Walk(func(n *Node) {
		if n.Type != ElementNode || n.Tag == "#document" {
			return
		}
		st.ElementsVisited++
		seen := map[int]bool{}
		consider := func(ris []int) {
			for _, ri := range ris {
				if seen[ri] {
					continue
				}
				seen[ri] = true
				st.CandidateTests++
				for _, sel := range idx.rules[ri].Selectors {
					if sel.Matches(n) {
						st.Matches++
						st.Declarations += idx.rules[ri].Declarations
						break
					}
				}
			}
		}
		if cls, ok := n.Attr("class"); ok {
			for _, c := range strings.Fields(cls) {
				consider(idx.byClass[c])
			}
		}
		if id, ok := n.Attr("id"); ok {
			consider(idx.byID[id])
		}
		consider(idx.byTag[n.Tag])
		consider(idx.universal)
	})
	return st
}

// StyleText concatenates the raw text of every <style> element.
func StyleText(doc *Document) string {
	var b strings.Builder
	doc.Root.Walk(func(n *Node) {
		if n.Type == ElementNode && n.Tag == "style" {
			for _, c := range n.Children {
				if c.Type == TextNode {
					b.WriteString(c.Text)
				}
			}
		}
	})
	return b.String()
}
