package lint

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fixtureResult bundles the fixture module with its lint findings.
type fixtureResult struct {
	mod   *Module
	diags []Diagnostic
}

// fixtureRun loads and lints testdata/src once; every test shares the
// result (loading type-checks a slice of the standard library, which
// dominates the cost).
var fixtureRun = sync.OnceValues(func() (fixtureResult, error) {
	mod, err := LoadModule("testdata/src")
	if err != nil {
		return fixtureResult{}, err
	}
	return fixtureResult{mod: mod, diags: Run(mod, Analyzers())}, nil
})

// expectation is one backtick-quoted regex from a "// want" comment,
// anchored to the fixture file and line it appears on.
type expectation struct {
	file string // module-relative, slash-separated
	line int
	re   *regexp.Regexp
	raw  string
	hits int
}

var wantArgRe = regexp.MustCompile("`([^`]+)`")

// parseWants scans every fixture file for "// want" comments and
// returns the expectations keyed by file:line.
func parseWants(t *testing.T, root string) map[string]map[int][]*expectation {
	t.Helper()
	wants := map[string]map[int][]*expectation{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(rel)
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			ms := wantArgRe.FindAllStringSubmatch(text[i:], -1)
			if len(ms) == 0 {
				t.Errorf("%s:%d: // want comment without a backtick-quoted pattern", file, line)
				continue
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Errorf("%s:%d: bad want pattern %q: %v", file, line, m[1], err)
					continue
				}
				if wants[file] == nil {
					wants[file] = map[int][]*expectation{}
				}
				wants[file][line] = append(wants[file][line],
					&expectation{file: file, line: line, re: re, raw: m[1]})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	return wants
}

// TestFixtures checks the fixture module produces exactly the
// diagnostics its "// want" comments declare: every finding matches an
// expectation on its line, and every expectation is hit.
func TestFixtures(t *testing.T) {
	fx, err := fixtureRun()
	if err != nil {
		t.Fatalf("lint fixture module: %v", err)
	}
	diags := fx.diags
	wants := parseWants(t, "testdata/src")
	for _, d := range diags {
		got := d.Rule + ": " + d.Message
		matched := false
		for _, e := range wants[d.Pos.Filename][d.Pos.Line] {
			if e.re.MatchString(got) {
				e.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, got)
		}
	}
	for _, lines := range wants {
		for _, exps := range lines {
			for _, e := range exps {
				if e.hits == 0 {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
				}
			}
		}
	}
}

// TestRevertedRegressionsCaught pins the regression detflow exists
// for: a wall-clock read back in the simulation core. If detflow loses
// the zero-hop case, this fails even if the want-matching above is
// loosened. An allocation back inside the quantum loop is for the root
// package's TestQuantumLoopAllocs to catch.
func TestRevertedRegressionsCaught(t *testing.T) {
	fx, err := fixtureRun()
	if err != nil {
		t.Fatalf("lint fixture module: %v", err)
	}
	for _, d := range fx.diags {
		if d.Rule == RuleDetFlow && d.Pos.Filename == "soc/soc.go" && strings.Contains(d.Message, "call to time.Now") {
			return
		}
	}
	t.Errorf("no %s diagnostic containing %q in soc/soc.go", RuleDetFlow, "call to time.Now")
}

// TestAllowMetaDiagnostics asserts the directive edge cases from the
// dvfs fixture are themselves reported: unknown rules (among them the
// retired "determinism", folded into detflow), missing reason, missing
// rule name, and a stale suppression.
func TestAllowMetaDiagnostics(t *testing.T) {
	fx, err := fixtureRun()
	if err != nil {
		t.Fatalf("lint fixture module: %v", err)
	}
	diags := fx.diags
	substrs := []string{
		`unknown rule "wallclock"`,
		`unknown rule "determinism"`,
		`suppression of "detflow" needs a reason`,
		"needs a rule name and a reason",
		`unused suppression of "detflow"`,
	}
	for _, s := range substrs {
		found := false
		for _, d := range diags {
			if d.Rule == RuleAllow && d.Pos.Filename == "dvfs/dvfs.go" && strings.Contains(d.Message, s) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no allow meta-diagnostic containing %q in dvfs/dvfs.go", s)
		}
	}
}

// TestReport checks the JSON report aggregates counts per rule and
// lists zero-count rules explicitly, so LINT_REPORT.json diffs show a
// rule going quiet as clearly as one firing.
func TestReport(t *testing.T) {
	fx, err := fixtureRun()
	if err != nil {
		t.Fatalf("lint fixture module: %v", err)
	}
	diags := fx.diags
	rep := NewReport(fx.mod, Analyzers(), diags)
	if rep.Total != len(diags) {
		t.Errorf("report Total = %d, want %d", rep.Total, len(diags))
	}
	seen := map[string]int{}
	for _, r := range rep.Rules {
		seen[r.Rule] = r.Count
		if len(r.Locations) != r.Count {
			t.Errorf("rule %s: %d locations for count %d", r.Rule, len(r.Locations), r.Count)
		}
	}
	for _, name := range AllRuleNames() {
		if _, ok := seen[name]; !ok {
			t.Errorf("report is missing rule %s", name)
		}
	}
	if rep.Schema != ReportSchema {
		t.Errorf("report Schema = %d, want %d", rep.Schema, ReportSchema)
	}
	if rep.Graph == nil || rep.Graph.Functions == 0 {
		t.Errorf("report Graph stats missing or empty: %+v", rep.Graph)
	}
}

// TestChanCloseFlagsClosingSite pins the chanclose diagnostic to the
// exact close(r.out) line of the stream fixture — the shape of the
// stream-writer shutdown race — so the finding cannot drift to the
// send or the spawn site without this failing.
func TestChanCloseFlagsClosingSite(t *testing.T) {
	fx, err := fixtureRun()
	if err != nil {
		t.Fatalf("lint fixture module: %v", err)
	}
	src, err := os.ReadFile("testdata/src/stream/stream.go")
	if err != nil {
		t.Fatal(err)
	}
	closeLine := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "close(r.out)") {
			closeLine = i + 1
			break
		}
	}
	if closeLine == 0 {
		t.Fatal("stream fixture no longer contains close(r.out)")
	}
	found := false
	for _, d := range fx.diags {
		if d.Rule != RuleChanClose || d.Pos.Filename != "stream/stream.go" {
			continue
		}
		found = true
		if d.Pos.Line != closeLine {
			t.Errorf("chanclose diagnostic at stream/stream.go:%d, want the closing site at line %d", d.Pos.Line, closeLine)
		}
		if !strings.Contains(d.Message, `close of channel "out"`) {
			t.Errorf("chanclose message does not name the channel: %s", d.Message)
		}
	}
	if !found {
		t.Errorf("no chanclose diagnostic in stream/stream.go")
	}
}

// TestDetFlowWitnessChain pins the two-hop laundering case: the
// diagnostic must carry the full call chain from the boundary call to
// the wall-clock read, and the seeded-generator chain through the same
// helper package must stay clean.
func TestDetFlowWitnessChain(t *testing.T) {
	fx, err := fixtureRun()
	if err != nil {
		t.Fatalf("lint fixture module: %v", err)
	}
	chain := false
	for _, d := range fx.diags {
		if d.Rule != RuleDetFlow {
			continue
		}
		if strings.Contains(d.Message, "helper.Stamp → helper.now → time.Now") {
			chain = true
		}
		if strings.Contains(d.Message, "NewRand") {
			t.Errorf("detflow flagged the seeded-generator chain: %s", d.String())
		}
	}
	if !chain {
		t.Errorf("no detflow diagnostic carrying the witness chain helper.Stamp → helper.now → time.Now")
	}
}

// TestCommittedLintReportListsAllRules guards the committed
// LINT_REPORT.json against drifting from the registered suite in
// either direction: a rule missing from it, or a retired rule still
// listed — the report regeneration script must be re-run whenever a
// rule is added or removed.
func TestCommittedLintReportListsAllRules(t *testing.T) {
	raw, err := os.ReadFile("../../LINT_REPORT.json")
	if err != nil {
		t.Fatalf("reading committed LINT_REPORT.json: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parsing committed LINT_REPORT.json: %v", err)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("committed report schema = %d, want %d; re-run scripts/lint_report.sh", rep.Schema, ReportSchema)
	}
	var listed []string
	for _, r := range rep.Rules {
		listed = append(listed, r.Rule)
	}
	want := AllRuleNames()
	slices.Sort(listed)
	slices.Sort(want)
	if !slices.Equal(listed, want) {
		t.Errorf("committed report lists rules %v, the suite has %v; re-run scripts/lint_report.sh", listed, want)
	}
}

// TestRepoIsLintClean lints the real repository and requires zero
// findings, so tier-1 `go test ./...` keeps the tree lint-green even
// where CI configuration drifts.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("loading repository module: %v", err)
	}
	diags := Run(mod, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d.String())
	}
	if len(diags) > 0 {
		t.Errorf("repository has %d lint finding(s); fix them or annotate //doralint:allow <rule> <reason>", len(diags))
	}
}
