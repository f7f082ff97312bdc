package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE extracts `// want `regex“ expectations from fixture sources.
var wantRE = regexp.MustCompile("want `([^`]+)`")

// expectation is one // want comment: a regexp that must match a
// diagnostic reported on the same line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants parses the fixture package's sources for expectations.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// runFixture vets one fixture package and checks its findings against the
// // want expectations — every expectation matched, nothing unexpected.
func runFixture(t *testing.T, name string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	runAnalyzers(pkg, &diags)

	wants := collectWants(t, dir)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestLockguardFixture(t *testing.T)  { runFixture(t, "lockguard") }
func TestLockedcallFixture(t *testing.T) { runFixture(t, "lockedcall") }
func TestPublishedFixture(t *testing.T)  { runFixture(t, "published") }
func TestSinkcheckFixture(t *testing.T)  { runFixture(t, "sinkcheck") }
func TestViewpurityFixture(t *testing.T) { runFixture(t, "viewpurity") }
func TestWalerrFixture(t *testing.T)     { runFixture(t, "walerr") }

// TestCleanFixture asserts the suite stays quiet on conforming code.
func TestCleanFixture(t *testing.T) { runFixture(t, "clean") }

// TestRepoIsVetClean is the gate in test form: the real tree must produce
// zero findings.
func TestRepoIsVetClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := vet(root, []string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding on the real tree: %s", d)
	}
}

// TestDiagnosticFormat pins the file:line:col shape CI greps for.
func TestDiagnosticFormat(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "walerr"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	runAnalyzers(pkg, &diags)
	if len(diags) == 0 {
		t.Fatal("walerr fixture produced no findings")
	}
	want := fmt.Sprintf("%s:%d:", diags[0].Pos.Filename, diags[0].Pos.Line)
	if !strings.HasPrefix(diags[0].String(), want) {
		t.Errorf("diagnostic %q does not start with file:line prefix %q", diags[0].String(), want)
	}
}

// TestExpandSkipsNestedModules: the ./... walk stays inside the module it
// starts in — a subdirectory with its own go.mod (like bench/) is another
// build, and neither it nor its packages are vetted.
func TestExpandSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                   "module fixture\n\ngo 1.24\n",
		"a.go":                     "package fixture\n",
		"inner/b.go":               "package inner\n",
		"nested/go.mod":            "module fixture/nested\n\ngo 1.24\n",
		"nested/c.go":              "package nested\n",
		"nested/deeper/d.go":       "package deeper\n",
		"inner/sub/go.mod":         "module fixture/inner/sub\n\ngo 1.24\n",
		"inner/sub/e.go":           "package sub\n",
		"testdata/ignored/f.go":    "package ignored\n",
		"inner/nogo/README.md":     "no Go files\n",
		"inner/onlytest/x_test.go": "package onlytest\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, filepath.ToSlash(rel))
	}
	if want := []string{".", "inner"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Expand = %v, want %v", got, want)
	}
}
