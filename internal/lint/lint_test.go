package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches fixture expectations: // want:analyzer "substring"
var wantRe = regexp.MustCompile(`// want:(\w+)(?: "([^"]*)")?`)

type expectation struct {
	analyzer string
	substr   string
	used     bool
}

// parseExpectations scans a fixture package for want comments, keyed by
// "basename:line".
func parseExpectations(t *testing.T, dir string) map[string][]*expectation {
	t.Helper()
	out := map[string][]*expectation{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", e.Name(), i+1)
				out[key] = append(out[key], &expectation{analyzer: m[1], substr: m[2]})
			}
		}
	}
	return out
}

// TestFixtures runs the full suite over every fixture package under
// testdata/src and requires the diagnostics to match the want comments
// exactly: each expectation produced, nothing unexpected.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			pkgs, err := Load(dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			checkExpectations(t, dir, Run(pkgs, All()))
		})
	}
}

// checkExpectations requires diags to match dir's want comments exactly:
// each expectation produced once, nothing unexpected.
func checkExpectations(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	want := parseExpectations(t, dir)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		matched := false
		for _, exp := range want[key] {
			if exp.used || exp.analyzer != d.Analyzer {
				continue
			}
			if exp.substr != "" && !strings.Contains(d.Message, exp.substr) {
				continue
			}
			exp.used, matched = true, true
			break
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, exps := range want {
		for _, exp := range exps {
			if !exp.used {
				t.Errorf("%s: expected %s diagnostic containing %q, got none", key, exp.analyzer, exp.substr)
			}
		}
	}
}

// TestRunOrdering checks diagnostics come out sorted by position.
func TestRunOrdering(t *testing.T) {
	dir := filepath.Join("testdata", "src", "concurrency_bad")
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, All())
	for i := 1; i < len(diags); i++ {
		if diags[i-1].Pos.Line > diags[i].Pos.Line {
			t.Fatalf("diagnostics out of order: %s before %s", diags[i-1], diags[i])
		}
	}
	if len(diags) == 0 {
		t.Fatal("expected findings in concurrency_bad")
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("no-such-analyzer") != nil {
		t.Error("ByName of unknown name should be nil")
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   string
		ok     bool
	}{
		{"plain", "", true},
		{"%v %s", "vs", true},
		{"%d%%", "d", true},
		{"%+v", "v", true},
		{"%6.2f", "f", true},
		{"%*d", "*d", true},
		{"%.*f", "*f", true},
		{"%[1]v", "", false},
		{"%q trailing %w", "qw", true},
	}
	for _, c := range cases {
		verbs, ok := formatVerbs(c.format)
		if ok != c.ok || string(verbs) != c.want {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, string(verbs), ok, c.want, c.ok)
		}
	}
}

// TestFindModuleRoot walks up from this package to the repo's go.mod.
func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("FindModuleRoot returned %s without go.mod: %v", root, err)
	}
}
