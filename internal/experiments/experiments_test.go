package experiments

import (
	"strings"
	"testing"

	"repro/internal/sys"
	"repro/internal/workload"
)

func TestTable1MatchesPaper(t *testing.T) {
	c := Table1Counts()
	if c[sys.Trivial] != 8 || c[sys.Short] != 68 || c[sys.Long] != 8 || c[sys.MultiStage] != 23 {
		t.Fatalf("inventory %v does not match the paper's 8/68/8/23", c)
	}
	out := Table1().String()
	for _, want := range []string{"Trivial", "thread_self", "107", "64%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ListsNineTypes(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"Mutex", "Cond", "Mapping", "Region", "Port", "Portset", "Space", "Thread", "Ref"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFigure1MentionsBothAxes(t *testing.T) {
	f := Figure1()
	for _, want := range []string{"Interrupt", "Process", "Atomic", "Fluke", "Mach", "BSD"} {
		if !strings.Contains(f, want) {
			t.Errorf("Figure 1 missing %q", want)
		}
	}
}

// TestTable3Shape checks the qualitative results the paper reports:
// remedy costs dwarf rollback costs; hard faults cost several times soft
// faults; server-side faults cost more than client-side ones.
func TestTable3Shape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	cs, ch, ss, sh := rows[0], rows[1], rows[2], rows[3]
	for _, r := range rows {
		if r.Faults != 1 {
			t.Errorf("%s: %d faults recorded, want exactly 1", r.Cause, r.Faults)
		}
		if r.RemedyUS <= r.RollbackUS {
			t.Errorf("%s: remedy %.2f <= rollback %.2f", r.Cause, r.RemedyUS, r.RollbackUS)
		}
		if r.RollbackUS <= 0 {
			t.Errorf("%s: no rollback cost; the paper's copying IPC redoes the words since its last commit", r.Cause)
		}
	}
	if ch.RemedyUS < 3*cs.RemedyUS {
		t.Errorf("client hard %.1f not >> client soft %.1f", ch.RemedyUS, cs.RemedyUS)
	}
	if sh.RemedyUS < 3*ss.RemedyUS {
		t.Errorf("server hard %.1f not >> server soft %.1f", sh.RemedyUS, ss.RemedyUS)
	}
	if ss.RemedyUS <= cs.RemedyUS {
		t.Errorf("server soft %.1f not > client soft %.1f", ss.RemedyUS, cs.RemedyUS)
	}
	if sh.RemedyUS <= ch.RemedyUS {
		t.Errorf("server hard %.1f not > client hard %.1f", sh.RemedyUS, ch.RemedyUS)
	}
	// Calibration bands around the paper's numbers (generous).
	if cs.RemedyUS < 10 || cs.RemedyUS > 40 {
		t.Errorf("client soft remedy %.1f µs outside band (paper: 18.9)", cs.RemedyUS)
	}
	if ch.RemedyUS < 60 || ch.RemedyUS > 250 {
		t.Errorf("client hard remedy %.1f µs outside band (paper: 118)", ch.RemedyUS)
	}
}

// TestTable3MetricsAgree is the acceptance check for the metrics
// registry's Table 3 cross-check: for every one of the four
// exception-cause classes, the fault.restarts.* counter from the
// instrumented run reports exactly the restart count the experiment's
// own Stats bookkeeping reports.
func TestTable3MetricsAgree(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want the four cause classes", len(rows))
	}
	for _, r := range rows {
		if r.MetricRestarts != r.Faults {
			t.Errorf("%s: metrics counted %d restarts, experiment counted %d",
				r.Cause, r.MetricRestarts, r.Faults)
		}
		if r.MetricRestarts == 0 {
			t.Errorf("%s: metrics restart counter never incremented", r.Cause)
		}
	}
	out := Table3MetricsAppendix(rows).String()
	if strings.Contains(out, "NO") {
		t.Errorf("appendix reports disagreement:\n%s", out)
	}
	for _, want := range []string{"fault.restarts", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("appendix missing %q:\n%s", want, out)
		}
	}
}

// TestTable5Shape checks the paper's qualitative Table 5 findings on the
// fast scale: FP is the slowest configuration on every workload, the
// interrupt model has an advantage on flukeperf, and memtest/gcc are
// nearly configuration-insensitive.
func TestTable5Shape(t *testing.T) {
	results, err := Table5(FastTable5Scale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]Table5Cell{}
	for _, r := range results {
		byName[r.Workload] = r.Cells
	}
	cfgIdx := map[string]int{}
	for i, c := range byName["memtest"] {
		cfgIdx[c.Config] = i
	}
	get := func(w, cfg string) float64 { return byName[w][cfgIdx[cfg]].Normalized }

	for _, w := range []string{"memtest", "flukeperf", "gcc"} {
		fp := get(w, "Process FP")
		for _, cfg := range []string{"Process NP", "Process PP", "Interrupt NP", "Interrupt PP"} {
			if fp < get(w, cfg) {
				t.Errorf("%s: FP (%.3f) should be slowest, but %s is %.3f", w, fp, cfg, get(w, cfg))
			}
		}
	}
	if v := get("flukeperf", "Interrupt NP"); v >= 1.0 {
		t.Errorf("flukeperf Interrupt NP = %.3f, want < 1.00 (paper: 0.94)", v)
	}
	if v := get("flukeperf", "Process FP"); v < 1.03 {
		t.Errorf("flukeperf Process FP = %.3f, want noticeably > 1 (paper: 1.20)", v)
	}
	for _, cfg := range []string{"Process PP", "Interrupt NP", "Interrupt PP"} {
		if v := get("memtest", cfg); v < 0.97 || v > 1.03 {
			t.Errorf("memtest %s = %.3f, want ~1.00", cfg, v)
		}
		if v := get("gcc", cfg); v < 0.95 || v > 1.06 {
			t.Errorf("gcc %s = %.3f, want ~1.00-1.03", cfg, v)
		}
	}
}

// TestTable6Shape checks the paper's headline latency ordering: FP gives
// small bounded latency with no misses; NP has maxima orders of magnitude
// larger; PP sits in between, bounded by the longest non-IPC kernel path.
func TestTable6Shape(t *testing.T) {
	sc := workload.FlukeperfScale{
		Nulls: 20_000, MutexPairs: 10_000, PingPong: 500, RPCs: 500,
		BigTransfers: 1, BigWords: 1 << 20 / 4, Searches: 2,
	}
	rows, err := Table6(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Two rows per configuration (fastpath on/off); the paper's ordering
	// claims are checked on the default (fastpath-on) regime.
	byCfg := map[string]Table6Row{}
	for _, r := range rows {
		if r.Fastpath {
			byCfg[r.Config] = r
		}
	}
	fp := byCfg["Process FP"]
	if fp.MaxUS > 40 {
		t.Errorf("FP max latency %.1f µs, want tightly bounded (paper: 19.6)", fp.MaxUS)
	}
	if fp.Misses != 0 {
		t.Errorf("FP missed %d events, want 0", fp.Misses)
	}
	for _, np := range []string{"Process NP", "Interrupt NP"} {
		if byCfg[np].MaxUS < 20*fp.MaxUS {
			t.Errorf("%s max %.1f µs not >> FP max %.1f µs", np, byCfg[np].MaxUS, fp.MaxUS)
		}
	}
	for _, pp := range []string{"Process PP", "Interrupt PP"} {
		if byCfg[pp].MaxUS >= byCfg["Process NP"].MaxUS {
			t.Errorf("%s max %.1f µs not < NP max %.1f µs", pp, byCfg[pp].MaxUS, byCfg["Process NP"].MaxUS)
		}
		if byCfg[pp].MaxUS <= fp.MaxUS {
			t.Errorf("%s max %.1f µs not > FP max %.1f µs", pp, byCfg[pp].MaxUS, fp.MaxUS)
		}
	}
	for _, r := range rows {
		if r.Runs == 0 {
			t.Errorf("%s: probe never ran", r.Config)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	rows := Table7()
	var flukeInt, flukeProc4k *Table7Row
	for i := range rows {
		r := &rows[i]
		if r.Published {
			continue
		}
		if r.Model == "Interrupt" {
			flukeInt = r
		}
		if r.Model == "Process" && r.Stack == 4096 {
			flukeProc4k = r
		}
	}
	if flukeInt == nil || flukeProc4k == nil {
		t.Fatal("missing measured Fluke rows")
	}
	if flukeInt.Total >= flukeProc4k.Total {
		t.Error("interrupt model should cost less per thread than process model")
	}
	// The paper's interrupt-model Fluke TCB was 300 bytes; ours should be
	// the same order of magnitude.
	if flukeInt.Total < 100 || flukeInt.Total > 1000 {
		t.Errorf("interrupt-model per-thread overhead %d bytes, want O(300)", flukeInt.Total)
	}
	out := Table7Render(rows).String()
	if !strings.Contains(out, "FreeBSD") || !strings.Contains(out, "as published") {
		t.Error("Table 7 rendering incomplete")
	}
}

func TestNullSyscallBias(t *testing.T) {
	p, i, delta, err := NullSyscall(5000)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §5.5: ~6 cycles of interrupt-model overhead against a
	// ~70-cycle minimal entry/exit; "even for the fastest possible
	// system call the interrupt-model overhead is less than 10%".
	if delta < 4 || delta > 10 {
		t.Errorf("interrupt-model overhead = %.1f cycles, want ~6", delta)
	}
	if p.KernelCycles < 60 || p.KernelCycles > 120 {
		t.Errorf("process-model null syscall = %.1f cycles, want ~70-ish", p.KernelCycles)
	}
	if delta/i.KernelCycles > 0.10 {
		t.Errorf("overhead fraction %.1f%%, want < 10%%", 100*delta/i.KernelCycles)
	}
}
