package fluke_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// walkRepo calls fn on every file outside dot-directories, with its
// contents when it is a .go file.
func walkRepo(t *testing.T, fn func(path, src string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir():
			return nil
		case !strings.HasSuffix(path, ".go"):
			fn(path, "")
			return nil
		}
		src, err := os.ReadFile(path)
		fn(path, string(src))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestDocsNameDeclaredTests keeps the prose and CI honest about tests:
// every Test, Fuzz and Benchmark name the docs cite is declared in some
// _test.go file, and each alternative of every -run, -fuzz and -bench
// pattern in CI matches at least one declared function of its kind.
func TestDocsNameDeclaredTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	declared := map[string]bool{}
	walkRepo(t, func(path, src string) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range decl.FindAllStringSubmatch(src, -1) {
				declared[m[1]] = true
			}
		}
	})

	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	for _, doc := range []string{"ARCHITECTURE.md", "EXPERIMENTS.md", "README.md", "bench/README.md", ".claude/skills/verify/SKILL.md"} {
		for _, name := range cited.FindAllString(readDoc(t, doc), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}

	kinds := map[string]string{"run": "Test|Fuzz", "fuzz": "Fuzz", "bench": "Benchmark"}
	flags := regexp.MustCompile(`-(run|fuzz|bench)[= ]'?([^' ]+)`)
	for _, m := range flags.FindAllStringSubmatch(readDoc(t, ".github/workflows/ci.yml"), -1) {
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

// TestDocsNameExistingCode keeps the prose from naming code that is gone:
// every backticked Go identifier (dotted names and a trailing () allowed)
// in the docs appears as a word in some .go file, and every backticked .go
// or .json file name exists — at that path, or, for a bare name, anywhere.
// Fenced code blocks are shell sessions and output, not names, so they are
// skipped.
func TestDocsNameExistingCode(t *testing.T) {
	words, files := map[string]bool{}, map[string]bool{}
	word := regexp.MustCompile(`\w+`)
	walkRepo(t, func(path, src string) {
		path = filepath.ToSlash(path)
		files[path], files[filepath.Base(path)] = true, true
		for _, w := range word.FindAllString(src, -1) {
			words[w] = true
		}
	})
	fence := regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	span := regexp.MustCompile("`([^`\n]+)`")
	ident := regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?$`)
	file := regexp.MustCompile(`^[\w./-]+\.(?:go|json)$`)
	for _, doc := range []string{"ARCHITECTURE.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		for _, m := range span.FindAllStringSubmatch(fence.ReplaceAllString(readDoc(t, doc), ""), -1) {
			name := m[1]
			switch {
			case file.MatchString(name):
				if !files[name] {
					t.Errorf("%s names %s, which does not exist", doc, name)
				}
			case ident.MatchString(name):
				for _, w := range strings.Split(strings.TrimSuffix(name, "()"), ".") {
					if !words[w] {
						t.Errorf("%s names `%s`, but no .go file mentions %s", doc, name, w)
					}
				}
			}
		}
	}
}
