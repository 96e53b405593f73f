package fluke_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mapRangeAllowed lists every range over a map in product code (the
// module's non-test files outside bench/), keyed "file func: range expr",
// with why its iteration order cannot reach output, virtual time or
// anything else a run reproduces. Go randomizes map order, so a new site
// must sort its keys first or earn an entry here.
var mapRangeAllowed = map[string]string{
	"internal/core/kernel.go Shutdown: range k.threads":       "collects the victims, then sorts them by thread ID",
	"internal/experiments/static.go Table1: range counts":     "sums the counts",
	"internal/metrics/metrics.go Snapshot: range r.counters":  "sorted by name before return",
	"internal/metrics/metrics.go Snapshot: range r.gauges":    "sorted by name before return",
	"internal/metrics/metrics.go Snapshot: range r.hists":     "sorted by name before return",
	"internal/profile/profile.go Snapshot: range merged":      "sorted by (path, syscall, PC bucket), a unique key, before return",
	"internal/trace/critpath.go Decompose: range agg":         "sorted by cycles, then by hop point, a unique key",
	"internal/trace/critpath.go SpanPaths: range flows":       "sorted by span ID, a unique key, before return",
	"internal/trace/perfetto.go ExportJSONMeta: range cpus":   "collects the CPU lanes, then sorts them",
	"internal/trace/perfetto.go ExportJSONMeta: range tracks": "collects the tracks, then sorts them by (CPU, thread)",
}

// TestNoNewMapRanges type-checks the module's product packages and fails
// on any range over a map that mapRangeAllowed does not name, and on any
// entry that no longer matches a site.
func TestNoNewMapRanges(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	found := map[string]bool{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "repro" || strings.HasPrefix(path, "repro/") {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		dir := "." + strings.TrimPrefix(path, "repro")
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						file := filepath.ToSlash(fset.Position(rs.Pos()).Filename)
						found[file+" "+fn.Name.Name+": range "+types.ExprString(rs.X)] = true
					}
					return true
				})
			}
		}
		checked[path] = pkg
		return pkg, nil
	}
	for _, root := range []string{".", "cmd", "examples", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root && (root == "." || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			_, err = check(strings.TrimSuffix("repro/"+filepath.ToSlash(path), "/."))
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var sites []string
	for site := range found {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		if mapRangeAllowed[site] == "" {
			t.Errorf("new range over a map: %s (sort its keys, or allow it with a reason)", site)
		}
	}
	for site := range mapRangeAllowed {
		if !found[site] {
			t.Errorf("allowed map range is gone: %s", site)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
