// Package equiv is the equivalence harness: one check that no fast path,
// observer or modeled optimisation changes more than its class allows
// (PAPER.md §3.1: the configuration "has no impact on the functionality
// of the API"). It owns the matrix (five configurations × NumCPUs {1,2,4}
// × {big, fine} locks), the flag registry, one Digest of a run with Diff
// to name the first field two digests disagree on, and the steps every
// cell runs (see steps). A guest program joins as a Scenario passed to
// Check. Only tests import this package, as only tests import httptest.
package equiv

import (
	"fmt"
	"regexp"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obj"
)

// Class is what a flag may change: each compares a subset of the previous
// one's digest fields (see Diff).
type Class uint8

const (
	// Identical: every digest field, bit for bit.
	Identical Class = iota
	// Untimed: Identical except two host-side readings taken mid-batch:
	// the clock a device register handler sees, and the guest-PC bucket
	// the profiler charges user cycles to (a batch's last PC). With the
	// fast paths off every instruction is its own batch. The guest itself
	// reads time only at a syscall, where the two agree.
	Untimed
	// Guest: what the guest can see — memory, the device log, the Table 3
	// restart causes and the fault counts (COW faults aside: they exist
	// only with zero-copy on). Timing may change.
	Guest
	// Memory: memory and the device log only.
	Memory
)

func (c Class) String() string {
	return [...]string{"identical", "untimed", "guest", "memory"}[c]
}

// Flag is one registered variant of the kernel configuration.
type Flag struct {
	Name  string
	Class Class
	Set   func(*core.Config)
	// Enables is true when Set turns the flag's path on (an observer);
	// otherwise Set turns a path off.
	Enables bool
	// Counters are the digest counters only the flag's path moves. Each
	// is zero in every run with the path off, and the first is non-zero
	// in some run with the path on of every scenario declaring the flag.
	// A counter a scenario's digests do not carry goes unchecked there.
	Counters []string
}

// The registry.
var (
	FastPath = Flag{Name: "DisableFastPath", Class: Untimed,
		Set:      func(c *core.Config) { c.DisableFastPath = true },
		Counters: []string{"PagesDecoded", "BlockHits", "BlocksBuilt", "LoopPasses", "LoopSkips"}}
	ThreadedCode = Flag{Name: "DisableThreadedCode", Class: Identical,
		Set:      func(c *core.Config) { c.DisableThreadedCode = true },
		Counters: []string{"BlockHits", "BlocksBuilt", "LoopPasses", "LoopSkips"}}
	Profiler = Flag{Name: "EnableProfiler", Class: Identical, Enables: true,
		Set:      func(c *core.Config) { c.EnableProfiler, c.EnableIPCSpans = true, true },
		Counters: []string{"ProfiledCycles"}}
	IPCFastPath = Flag{Name: "DisableIPCFastPath", Class: Guest,
		Set:      func(c *core.Config) { c.DisableIPCFastPath = true },
		Counters: []string{"FastpathHits"}}
	ZeroCopy = Flag{Name: "DisableZeroCopy", Class: Guest,
		Set:      func(c *core.Config) { c.DisableZeroCopy = true },
		Counters: []string{"ZeroCopyShares", "ZeroCopyCOWBreaks"}}
	NICCoalesce = Flag{Name: "DisableNICCoalesce", Class: Memory,
		Set:      func(c *core.Config) { c.DisableNICCoalesce = true },
		Counters: []string{"Coalesced"}}
)

// Scenario is one guest program, run in every cell of the matrix under
// every combination of its flags.
type Scenario struct {
	Flags []Flag
	// Fires lists counters the program drives in its default run.
	Fires []string
	// Restore opts into the restore step; Run must then drive the kernel
	// through Run.Go.
	Restore bool
	// Run executes the program under r.Config and digests the result.
	Run func(t *testing.T, r *Run) *Digest
}

// Run is one execution of a scenario.
type Run struct {
	Config core.Config
	t      *testing.T
	cut    uint64 // restore step: checkpoint at this many cycles
}

// Go runs k, whose guest lives in space s, for budget cycles and returns
// the kernel and space the run ended on. In the restore step it stops at
// the cut, checkpoints s, restores it on a fresh kernel of the same
// configuration and runs that for the rest of the budget; a thread that
// exited before the cut is not restored.
func (r *Run) Go(k *core.Kernel, s *obj.Space, budget uint64) (*core.Kernel, *obj.Space) {
	if r.cut == 0 || r.cut >= budget {
		k.RunFor(budget)
		return k, s
	}
	k.RunFor(r.cut)
	img, err := checkpoint.Capture(k, s)
	if err != nil {
		r.t.Fatalf("capture at %d: %v", r.cut, err)
	}
	k2 := core.New(r.Config)
	if k.Metrics != nil {
		k2.EnableMetrics()
	}
	s2, threads, err := checkpoint.Restore(k2, img)
	if err != nil {
		r.t.Fatalf("restore at %d: %v", r.cut, err)
	}
	checkpoint.StartAll(k2, img, threads)
	k2.RunFor(budget - r.cut)
	return k2, s2
}

// Check runs sc in every cell of the matrix and fails t on the first
// field of each comparison that differs.
func Check(t *testing.T, sc Scenario) {
	m := matrix{fired: map[string]bool{}}
	for _, base := range core.Configurations() {
		t.Run(base.Name(), func(t *testing.T) {
			m.uni = nil
			for _, n := range []int{1, 2, 4} {
				for _, lm := range []core.LockModel{core.LockBig, core.LockFine} {
					cfg := base
					cfg.NumCPUs, cfg.LockModel = n, lm
					t.Run(fmt.Sprintf("cpus=%d/%s", n, lm), func(t *testing.T) {
						c := &cell{t: t, sc: sc, cfg: cfg}
						for _, step := range steps {
							step(c, &m)
						}
					})
				}
			}
		})
	}
	for _, f := range sc.Flags {
		if !m.fired[f.Name] {
			t.Errorf("%s: %s never moved with its path on; the comparisons are vacuous", f.Name, f.Counters[0])
		}
	}
}

// matrix carries what the steps see across cells.
type matrix struct {
	first *Digest         // the first cell's default run
	uni   []*Digest       // the 1-CPU big-lock cell's runs
	fired map[string]bool // flags whose first counter moved (or is not carried)
}

// cell is one (configuration, CPUs, lock model) point and its runs,
// indexed by flag subset: bit i set means sc.Flags[i] is applied.
type cell struct {
	t    *testing.T
	sc   Scenario
	cfg  core.Config
	runs []*Digest
}

// steps are run in order in every cell.
var steps = []func(c *cell, m *matrix){
	// Every flag subset, each compared with the subsets one flag short.
	func(c *cell, m *matrix) {
		c.runs = make([]*Digest, 1<<len(c.sc.Flags))
		for set := range c.runs {
			c.runs[set] = c.run(set, 0)
			c.checkCounters(set, m)
			for i, f := range c.sc.Flags {
				if set&(1<<i) != 0 {
					c.compare(c.runs[set^1<<i], c.runs[set], f.Class, c.label(set^1<<i), c.label(set))
				}
			}
		}
	},
	// Determinism: the default run and the run with every flag, again.
	func(c *cell, _ *matrix) {
		for _, set := range slices.Compact([]int{0, len(c.runs) - 1}) {
			c.compare(c.runs[set], c.run(set, 0), Identical, c.label(set), c.label(set)+" again")
		}
	},
	// The lock models at one CPU: fine against big, every subset.
	func(c *cell, m *matrix) {
		switch {
		case c.cfg.NumCPUs != 1:
		case c.cfg.LockModel == core.LockBig:
			m.uni = c.runs
		default:
			for set, d := range m.uni { // none if the big-lock cell failed
				c.compare(d, c.runs[set], Identical, "big lock, "+c.label(set), "fine locks, "+c.label(set))
			}
		}
	},
	// The configurations: each cell's default memory against the first's.
	func(c *cell, m *matrix) {
		if m.first == nil {
			m.first = c.runs[0]
			return
		}
		c.compare(m.first, c.runs[0], Memory, "first cell", "this cell")
	},
	// Checkpoint → restore on a fresh kernel → continue: two restores
	// agree, and reach the undisturbed run's memory.
	func(c *cell, _ *matrix) {
		if !c.sc.Restore {
			return
		}
		st := c.runs[0].Stats
		cut := (st.UserCycles + st.KernelCycles) / 2 // in the busy part, not the idle tail
		a, b := c.run(0, cut), c.run(0, cut)
		what := fmt.Sprintf("restored at %d", cut)
		c.compare(a, b, Identical, what, what+" again")
		c.compare(c.runs[0], a, Memory, "default", what)
	},
}

func (c *cell) run(set int, cut uint64) *Digest {
	cfg := c.cfg
	for i, f := range c.sc.Flags {
		if set&(1<<i) != 0 {
			f.Set(&cfg)
		}
	}
	return c.sc.Run(c.t, &Run{Config: cfg, t: c.t, cut: cut})
}

// label names a flag subset.
func (c *cell) label(set int) string {
	var names []string
	for i, f := range c.sc.Flags {
		if set&(1<<i) != 0 {
			names = append(names, f.Name)
		}
	}
	if names == nil {
		return "default"
	}
	return strings.Join(names, "+")
}

// checkCounters is the vacuity guard: a path that is off moved none of
// its counters, and the default run moved the counters the scenario lists.
func (c *cell) checkCounters(set int, m *matrix) {
	d := c.runs[set]
	for i, f := range c.sc.Flags {
		if (set&(1<<i) != 0) == f.Enables {
			v, ok := d.Counters[f.Counters[0]]
			m.fired[f.Name] = m.fired[f.Name] || !ok || v != 0
			continue
		}
		for _, name := range f.Counters {
			if v := d.Counters[name]; v != 0 {
				c.t.Errorf("%s: %s = %d with the path off%s", c.label(set), name, v, Replay(c.t.Name()))
			}
		}
	}
	for _, name := range c.sc.Fires {
		if v, ok := d.Counters[name]; ok && v == 0 && set == 0 {
			c.t.Errorf("default: %s = 0; the comparisons are vacuous%s", name, Replay(c.t.Name()))
		}
	}
}

func (c *cell) compare(a, b *Digest, class Class, la, lb string) {
	if diff := Diff(a, b, class); diff != "" {
		c.t.Errorf("%s [%s vs %s, %s]%s", diff, la, lb, class, Replay(c.t.Name()))
	}
}

// Replay formats the go test command that reruns the test named name in
// the current package.
func Replay(name string) string {
	elems := strings.Split(name, "/")
	for i, e := range elems {
		elems[i] = "^" + regexp.QuoteMeta(e) + "$"
	}
	return fmt.Sprintf("; replay: go test ./%s -run '%s'", pkgDir(), strings.Join(elems, "/"))
}

// pkgDir is the package under test, relative to the module root.
func pkgDir() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "."
	}
	return strings.TrimPrefix(strings.TrimSuffix(bi.Path, ".test"), bi.Main.Path+"/")
}
