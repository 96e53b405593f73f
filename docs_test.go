package fluke_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameDeclaredTests keeps the prose and CI honest about tests:
// every Test, Fuzz and Benchmark name the docs cite is declared in some
// _test.go file, and each alternative of every -run, -fuzz and -bench
// pattern in CI matches at least one declared function of its kind.
func TestDocsNameDeclaredTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) string {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}

	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	for _, doc := range []string{"ARCHITECTURE.md", "EXPERIMENTS.md", "README.md", "bench/README.md", ".claude/skills/verify/SKILL.md"} {
		for _, name := range cited.FindAllString(read(doc), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}

	kinds := map[string]string{"run": "Test|Fuzz", "fuzz": "Fuzz", "bench": "Benchmark"}
	flags := regexp.MustCompile(`-(run|fuzz|bench)[= ]'?([^' ]+)`)
	for _, m := range flags.FindAllStringSubmatch(read(".github/workflows/ci.yml"), -1) {
		if m[2] == "^$" {
			continue
		}
		kind := regexp.MustCompile("^(?:" + kinds[m[1]] + ")")
		for _, alt := range strings.Split(strings.Split(m[2], "/")[0], "|") {
			re := regexp.MustCompile(alt)
			matched := false
			for name := range declared {
				matched = matched || (kind.MatchString(name) && re.MatchString(name))
			}
			if !matched {
				t.Errorf("ci.yml: -%s %q: %q matches no declared function", m[1], m[2], alt)
			}
		}
	}
}
