package lint

import (
	"encoding/json"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// vetChecks are the go vet analyzers gpulint leaves lock and cancel
// hygiene to: copylocks reports every lock copied by value, and
// lostcancel a context cancel function discarded or skipped on some path.
// The CI lint job runs all of vet; this test keeps these two in tier-1.
var vetChecks = []string{"-copylocks", "-lostcancel"}

// posnRe splits a vet position "file:line:col".
var posnRe = regexp.MustCompile(`^(.*):(\d+):(\d+)$`)

// goVet runs go vet with vetChecks and extra args from the module root.
func goVet(t *testing.T, root string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append(append([]string{"vet"}, vetChecks...), args...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestVetLocksAndCancels runs the vet checks over testdata/vet, which
// must report every want line there, and over the module, which must
// report nothing: a lock copied by value anywhere in the tree fails
// tier-1 here.
func TestVetLocksAndCancels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over the whole module; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}

	out, err := goVet(t, root, "-json", "./internal/lint/testdata/vet")
	if err != nil {
		t.Fatalf("go vet on the fixture: %v\n%s", err, out)
	}
	// -json prints a "# package" line before each package's object of
	// analyzer → findings.
	var body strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "#") {
			body.WriteString(line + "\n")
		}
	}
	var diags []Diagnostic
	dec := json.NewDecoder(strings.NewReader(body.String()))
	for dec.More() {
		var pkgs map[string]map[string][]struct{ Posn, Message string }
		if err := dec.Decode(&pkgs); err != nil {
			t.Fatalf("decoding go vet -json output: %v\n%s", err, out)
		}
		for _, byCheck := range pkgs {
			for check, findings := range byCheck {
				for _, f := range findings {
					m := posnRe.FindStringSubmatch(f.Posn)
					if m == nil {
						t.Fatalf("unparseable vet position %q", f.Posn)
					}
					line, _ := strconv.Atoi(m[2])
					diags = append(diags, Diagnostic{
						Analyzer: check,
						Pos:      token.Position{Filename: m[1], Line: line},
						Message:  f.Message,
					})
				}
			}
		}
	}
	checkExpectations(t, filepath.Join("testdata", "vet"), diags)

	if out, err := goVet(t, root, "./..."); err != nil || out != "" {
		t.Errorf("go vet %s ./... is not clean (%v):\n%s", strings.Join(vetChecks, " "), err, out)
	}
}
