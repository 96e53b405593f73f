package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlukebenchGolden runs every table whose values are virtual-time
// numbers, at flukebench's -fast defaults, and compares what it prints
// with the committed testdata/flukebench_<name>_fast.txt byte for byte.
// The one host-time line (the "regenerated in" footer) is dropped, as
// the regeneration command drops it. Virtual numbers are exact per seed,
// so any difference means the simulation changed.
func TestFlukebenchGolden(t *testing.T) {
	for _, tb := range Tables() {
		if tb.HostMeasured {
			continue
		}
		t.Run(tb.Name, func(t *testing.T) {
			var out bytes.Buffer
			if err := tb.Write(&out, Options{Fast: true, Scale: 64}); err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, line := range strings.SplitAfter(out.String(), "\n") {
				if !strings.Contains(line, "regenerated in") {
					got.WriteString(line)
				}
			}
			path := filepath.Join("testdata", "flukebench_"+tb.Name+"_fast.txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("-%s -fast differs from %s:\n%s\nIf the change is intended, regenerate it:\n"+
					"  go run ./cmd/flukebench -%s -fast | grep -v 'regenerated in' > internal/experiments/%s",
					tb.Name, path, lineDiff(string(want), got.String()), tb.Name, filepath.ToSlash(path))
			}
		})
	}
}

// TestCrossoverRejectsScaleBelowOne: a crossover scale below one CPU
// selects no CPU count, and must be an error rather than the full sweep.
func TestCrossoverRejectsScaleBelowOne(t *testing.T) {
	for _, tb := range Tables() {
		if tb.Name != "crossover" {
			continue
		}
		for _, scale := range []int{0, -1} {
			var out bytes.Buffer
			if err := tb.Run(&out, Options{Fast: true, Scale: scale}); err == nil || out.Len() != 0 {
				t.Errorf("scale %d: err %v after %d bytes of output; want an error and none", scale, err, out.Len())
			}
		}
		return
	}
	t.Fatal("no crossover table")
}

// lineDiff lists the lines at which want and got differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(no line)"
	}
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		if wl, gl := line(w, i), line(g, i); wl != gl {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
