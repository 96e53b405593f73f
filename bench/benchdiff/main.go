// Command benchdiff compares two results files written by the benchmark
// (bench/out/results.json), one from the parent commit and one from the
// change, both run with the same seed and scale.
//
//	go -C bench run ./benchdiff [-spec ../BENCHMARK.json] [-expect-virtual-identical] old.json new.json
//
// It applies the regression bound BENCHMARK.json stores for each
// end-to-end metric, prints one row per workload, and exits 1 when a
// metric worsened by more than its bound or more operations failed. A
// host-clock metric whose own repetition spread exceeds its bound is
// printed as "unresolved", not as unchanged — unless the change's upper
// quartile is below the parent's lower quartile. With
// -expect-virtual-identical every virtual-clock value (virt_* metrics,
// counters, profiler paths, paper.* figures) must match exactly: the check
// a change that only speeds up the simulator has to pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/bench/report"
)

func main() {
	specPath := flag.String("spec", "", "BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	identical := flag.Bool("expect-virtual-identical", false, "fail unless every virtual-clock value matches exactly")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-spec BENCHMARK.json] [-expect-virtual-identical] old.json new.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var spec report.Spec
	paths := []string{*specPath}
	if *specPath == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var err error
	for _, p := range paths {
		if err = report.Load(p, &spec); err == nil {
			break
		}
	}
	if err != nil {
		fatal(err)
	}
	var old, cur report.Results
	if err := report.Load(flag.Arg(0), &old); err != nil {
		fatal(err)
	}
	if err := report.Load(flag.Arg(1), &cur); err != nil {
		fatal(err)
	}
	if old.Seed != cur.Seed || old.Scale != cur.Scale {
		fatal(fmt.Errorf("runs differ in inputs: seed %d scale %s vs seed %d scale %s", old.Seed, old.Scale, cur.Seed, cur.Scale))
	}

	bad := compare(spec, &old, &cur)
	if *identical {
		bad += virtualDiffs(&old, &cur)
	}
	if bad > 0 {
		fmt.Printf("\n%d finding(s): regression\n", bad)
		os.Exit(1)
	}
	fmt.Println("\nno regression")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func byName(ws []report.WorkloadResult) map[string]report.WorkloadResult {
	m := map[string]report.WorkloadResult{}
	for _, w := range ws {
		m[w.Name] = w
	}
	return m
}

func failedPct(w report.WorkloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return 100 * float64(w.Failed) / float64(w.Attempted)
}

// verdict judges one end-to-end metric of one workload. All end-to-end
// metrics are lower-is-better; m.Better is honoured anyway.
func verdict(m report.EndToEndMetric, o, n report.Value) (text string, regressed bool) {
	if o.Value == 0 {
		return "n/a", false
	}
	worse := (n.Value - o.Value) / o.Value
	if m.Better == "higher" {
		worse = -worse
	}
	text = fmt.Sprintf("%+.2f%%", 100*(n.Value-o.Value)/o.Value)
	// Quartiles are present on host-clock medians taken over repetitions.
	if o.N > 1 && n.N > 1 {
		spread := max((o.Q3-o.Q1)/o.Value, (n.Q3-n.Q1)/n.Value)
		if spread > m.Bound {
			if (m.Better != "higher" && n.Q3 < o.Q1) || (m.Better == "higher" && n.Q1 > o.Q3) {
				return text + " better", false
			}
			return text + " unresolved", false
		}
	}
	if worse > m.Bound {
		return text + " WORSE", true
	}
	return text, false
}

// compare prints the end-to-end table and returns the number of findings.
func compare(spec report.Spec, old, cur *report.Results) int {
	bad := 0
	curW := byName(cur.Workloads)
	fmt.Printf("%-16s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Printf(" %*s", width(m.Name), m.Name)
	}
	fmt.Printf(" %18s\n", "failed_ops_pct")
	fmt.Printf("%-16s", "bound")
	for _, m := range spec.EndToEnd {
		fmt.Printf(" %*s", width(m.Name), fmt.Sprintf("%.0f%%", 100*m.Bound))
	}
	fmt.Printf(" %18s\n", "must not rise")
	for _, ow := range old.Workloads {
		nw, ok := curW[ow.Name]
		if !ok || ow.EndToEnd == nil || nw.EndToEnd == nil {
			continue
		}
		fmt.Printf("%-16s", ow.Name)
		for _, m := range spec.EndToEnd {
			text, regressed := verdict(m, ow.EndToEnd[m.Name], nw.EndToEnd[m.Name])
			if regressed {
				bad++
			}
			fmt.Printf(" %*s", width(m.Name), text)
		}
		of, nf := failedPct(ow), failedPct(nw)
		text := fmt.Sprintf("%.4f -> %.4f", of, nf)
		if nf > of {
			bad++
			text += " WORSE"
		}
		fmt.Printf(" %18s\n", text)
	}
	return bad
}

func width(name string) int { return max(len(name), 18) }

// virtualDiffs lists every virtual-clock value that differs between the
// two runs and returns how many there are.
func virtualDiffs(old, cur *report.Results) int {
	bad := 0
	check := func(scope string, o, n map[string]report.Value) {
		names := make([]string, 0, len(o))
		for name := range o {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ov := o[name]
			nv, ok := n[name]
			if ov.Clock != report.ClockVirtual || (ok && nv.Value == ov.Value) {
				continue
			}
			bad++
			if !ok {
				fmt.Printf("virtual value missing: %s %s\n", scope, name)
				continue
			}
			fmt.Printf("virtual value differs: %s %s: %v -> %v %s\n", scope, name, ov.Value, nv.Value, ov.Unit)
		}
	}
	curW := byName(cur.Workloads)
	for _, ow := range old.Workloads {
		nw := curW[ow.Name]
		check(ow.Name, ow.EndToEnd, nw.EndToEnd)
		check(ow.Name, ow.PerLayer, nw.PerLayer)
	}
	check("probes", old.Probes, cur.Probes)
	if bad == 0 {
		fmt.Println("\nevery virtual-clock value is identical")
	}
	return bad
}
