package tablefmt

import (
	"strings"
	"testing"
)

func TestStringRendering(t *testing.T) {
	tb := New("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.String()
	if !strings.Contains(out, "Demo\n====") {
		t.Fatalf("missing title underline:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "name ") {
		t.Fatalf("header row wrong: %q", lines[2])
	}
	if !strings.Contains(lines[4], "alpha") || !strings.Contains(lines[4], "1.500") {
		t.Fatalf("data row wrong: %q", lines[4])
	}
	// Columns aligned: "value" column starts at same offset in all rows.
	idx := strings.Index(lines[2], "value")
	if !strings.HasPrefix(lines[4][idx:], "1.500") {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestNoTitleNoHeaders(t *testing.T) {
	tb := New("")
	tb.AddRowStrings("x", "y")
	out := tb.String()
	if strings.Contains(out, "=") {
		t.Fatalf("unexpected separator:\n%s", out)
	}
	if strings.TrimSpace(out) != "x  y" {
		t.Fatalf("out = %q", out)
	}
}

func TestRaggedRows(t *testing.T) {
	tb := New("", "a")
	tb.AddRowStrings("1", "2", "3")
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra columns lost:\n%s", out)
	}
}

func TestNoTrailingSpaces(t *testing.T) {
	tb := New("T", "col", "c2")
	tb.AddRow("averyverylongcell", "x")
	tb.AddRow("s", "y")
	for _, line := range strings.Split(tb.String(), "\n") {
		if strings.HasSuffix(line, " ") {
			t.Fatalf("trailing space in %q", line)
		}
	}
}
