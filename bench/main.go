// Command bench is the repository's benchmark: six workloads over the
// simulated Fluke kernel, every metric reported by name with its unit on
// two clocks — virtual (the modelled kernel; repeats exactly for a seed)
// and host (how fast the simulator runs; calibrated against a fixed
// pure-Go loop). See README.md for the method and BENCHMARK.json at the
// repository root for the metric list and regression bounds.
//
// Two ways to run it:
//
//	bash bench/run.sh [seed]                      all workloads, probes, traced pass; prints tables
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The second form is the driver's: one workload measured for S seconds,
// and one JSON object as the last line of standard output, holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/bench/report"
	"repro/internal/profile"
)

// options are the command line.
type options struct {
	seed     uint64
	workload string
	seconds  float64
	trace    bool
	reps     int
	probes   bool
	smoke    bool // -scale smoke
	outDir   string
}

// boolValue is a flag that takes its value as a separate argument, so
// that both `--trace 0` (the driver) and `-trace=false` parse.
type boolValue bool

func (b *boolValue) String() string { return strconv.FormatBool(bool(*b)) }
func (b *boolValue) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolValue(v)
	return err
}

func main() {
	var o options
	trace := boolValue(true)
	scale := flag.String("scale", "full", "workload sizes: full, or smoke for the test suite")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json generated from the metric catalogue and exit")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the generated workload inputs")
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Float64Var(&o.seconds, "seconds", 0, "driver mode: measure one workload for this many seconds and print one JSON result line")
	flag.Var(&trace, "trace", "run the per-layer traced pass; in driver mode 0 selects the end-to-end metrics and 1 the per-layer ones")
	flag.IntVar(&o.reps, "reps", 15, "timed repetitions per workload when -seconds is not given")
	flag.BoolVar(&o.probes, "probes", true, "run the layer probes")
	flag.StringVar(&o.outDir, "out", "out", "directory for results.json and trace.json")
	flag.Parse()
	o.trace = bool(trace)

	if *printSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec()); err != nil {
			fatal(err)
		}
		return
	}
	switch *scale {
	case "full":
	case "smoke":
		o.smoke = true
	default:
		fatal(fmt.Errorf("unknown -scale %q (want full or smoke)", *scale))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if o.seconds > 0 && o.workload == "" {
		fatal(fmt.Errorf("-seconds needs -workload"))
	}

	res, sp, err := run(o)
	if err != nil {
		fatal(err)
	}
	if err := writeOutputs(o, res, sp); err != nil {
		fatal(err)
	}
	if o.seconds > 0 {
		line, err := driverLine(o, res)
		if err != nil {
			fatal(err)
		}
		for _, f := range res.Workloads[0].Failures {
			fmt.Fprintln(os.Stderr, "bench: failure:", f)
		}
		fmt.Printf("%s\n", line)
		return
	}
	printTables(os.Stdout, res)
	for _, w := range res.Workloads {
		if w.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run measures the selected workloads and returns everything reported.
func run(o options) (*report.Results, *spanRec, error) {
	start := time.Now()
	// The serial simulator is one thread; with one P the collector runs
	// inline instead of on a second core the sandbox may not really have.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	all := instantiate(o.seed, o.smoke)
	var selected []instance
	for _, w := range all {
		if o.workload == "" || o.workload == w.def.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}

	res := &report.Results{Seed: o.seed, Scale: "full", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	if o.smoke {
		res.Scale = "smoke"
	}
	var mu sync.Mutex // res is also written by the watchdog's goroutine
	h := &harness{sp: newSpanRec()}
	h.wedged = func(name string) {
		mu.Lock()
		fmt.Fprintf(os.Stderr, "bench: %s: repetition exceeded %v of host time; counting the workload as failed\n", name, repTimeout)
		res.Workloads = append(res.Workloads, report.WorkloadResult{Name: name, Attempted: 1, Failed: 1,
			Failures: []string{"host timeout"}})
		_ = writeOutputs(o, res, h.sp) // best effort on the way out
		os.Exit(3)
	}

	driver := o.seconds > 0
	doE2E := !driver || !o.trace
	doLayers := o.trace
	for _, w := range selected {
		wr := report.WorkloadResult{Name: w.def.name, Op: w.def.op, Inputs: w.inputs}
		if doE2E {
			stop := func(done int) bool { return done >= o.reps }
			if driver {
				stop = untilElapsed(o.seconds, 3)
			}
			aggregateE2E(&wr, h.measure(w, []runMode{modeE2E}, stop))
		}
		if doLayers {
			// A pair is one untraced and one traced repetition.
			stop := func(done int) bool { return done >= 2*max(o.reps/3, 1) }
			if driver {
				stop = untilElapsed(o.seconds/2, 4)
			}
			aggregateLayers(&wr, h.measure(w, []runMode{modePlain, modeTraced}, stop))
		}
		mu.Lock()
		res.Workloads = append(res.Workloads, wr)
		mu.Unlock()
	}
	if o.probes && doLayers {
		var failures []string
		res.Probes, failures = runProbes(h.sp, o.smoke)
		if len(failures) > 0 {
			// A probe that cannot run is a wrong output of the layer it
			// calls; charge it to every workload reported.
			for i := range res.Workloads {
				res.Workloads[i].Failed++
				res.Workloads[i].Attempted++
				res.Workloads[i].Failures = append(res.Workloads[i].Failures, failures...)
			}
		}
	}
	res.TotalRunS = time.Since(start).Seconds()
	if doLayers {
		for i := range res.Workloads {
			pl := res.Workloads[i].PerLayer
			pl["harness.calib_ns_median"] = hostValue(median(h.calibs), "ns")
			pl["harness.calib_spread_pct"] = hostValue(iqrPct(h.calibs), "%")
			pl["harness.total_run_s"] = hostValue(res.TotalRunS, "s")
		}
	}
	return res, h.sp, nil
}

// untilElapsed stops a measure loop once seconds of wall time have passed
// and at least minReps repetitions are in.
func untilElapsed(seconds float64, minReps int) func(int) bool {
	var t0 time.Time
	return func(done int) bool {
		if done == 0 {
			t0 = time.Now()
		}
		return done >= minReps && time.Since(t0).Seconds() >= seconds
	}
}

func hostValue(v float64, unit string) report.Value {
	return report.Value{Value: v, Unit: unit, Clock: report.ClockHost}
}

func virtValue(v float64, unit string) report.Value {
	return report.Value{Value: v, Unit: unit, Clock: report.ClockVirtual}
}

// tally adds the samples' operation and failure counts to wr.
func tally(wr *report.WorkloadResult, samples []sample) {
	seen := map[string]bool{}
	for _, f := range wr.Failures {
		seen[f] = true
	}
	for _, s := range samples {
		wr.Attempted += s.res.v.ops
		wr.Failed += min(s.res.v.failed, s.res.v.ops)
		for _, f := range s.res.failures {
			if !seen[f] {
				seen[f] = true
				wr.Failures = append(wr.Failures, f)
			}
		}
	}
	wr.Ops = samples[0].res.v.ops
}

// perOpSeries is f(sample)/ops for every sample.
func perOpSeries(samples []sample, f func(s *sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = f(&samples[i]) / float64(max(samples[i].res.v.ops, 1))
	}
	return out
}

// aggregateE2E turns the end-to-end pass's samples into the end_to_end
// metrics: medians over repetitions on the host clock, the (identical)
// first repetition's numbers on the virtual one.
func aggregateE2E(wr *report.WorkloadResult, samples []sample) {
	tally(wr, samples)
	v := samples[0].res.v
	ops := float64(max(v.ops, 1))
	cal := perOpSeries(samples, func(s *sample) float64 { return s.calNS })
	var setup []float64
	var alloc, allOps float64
	for _, s := range samples {
		setup = append(setup, s.setupS)
		alloc += float64(s.alloc)
		allOps += float64(max(s.res.v.ops, 1))
	}
	host := hostValue(median(cal), "ns")
	host.Q1, host.Q3, host.N = quantile(cal, 0.25), quantile(cal, 0.75), len(cal)
	latMean, lat99 := virtValue(v.latMean, "us"), virtValue(v.latP99, "us")
	latMean.N, lat99.N = v.latN, v.latN
	wr.EndToEnd = map[string]report.Value{
		"setup_s":                   hostValue(median(setup), "s"),
		"host_cal_ns_per_op":        host,
		"host_alloc_bytes_per_op":   hostValue(alloc/allOps, "B"),
		"virt_cycles_per_op":        virtValue(float64(v.cycles)/ops, "cyc"),
		"virt_kernel_cycles_per_op": virtValue(float64(v.kernelCycles)/ops, "cyc"),
		"virt_lat_mean_us":          latMean,
		"virt_lat_p99_us":           lat99,
	}
}

// aggregateLayers turns the per-layer pass's samples — untraced and
// traced repetitions alternating — into the per_layer metrics.
func aggregateLayers(wr *report.WorkloadResult, samples []sample) {
	tally(wr, samples)
	var plain, traced []sample
	for _, s := range samples {
		if s.mode == modeTraced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	v := plain[0].res.v
	pl := map[string]report.Value{}
	for _, d := range counterDefs {
		pl[d.Name] = virtValue(d.get(&v), d.Unit)
	}

	// The profiler's paths must account for every cycle the kernels
	// charged: that is what makes them a budget and not a sample.
	tr := traced[0].res
	if tr.profTotal != tr.v.totalCycles {
		wr.Failed++
		wr.Attempted++
		wr.Failures = append(wr.Failures, fmt.Sprintf("profiler paths sum to %d cycles, Stats().TotalCycles() is %d", tr.profTotal, tr.v.totalCycles))
	}
	for p, name := range profile.PathNames {
		pl["prof."+name+".cyc_per_op"] = virtValue(perOp(tr.prof[p], &v), "cyc/op")
	}
	pl["trace.ring_dropped"] = virtValue(float64(tr.ringDropped), "count")

	calOf := func(s *sample) float64 { return s.calNS }
	plainCal := perOpSeries(plain, calOf)
	pl["harness.trace_overhead_pct"] = hostValue(100*(median(perOpSeries(traced, calOf))/median(plainCal)-1), "%")
	pl["core.sim_mcyc_per_host_s"] = hostValue(float64(v.cycles)/float64(max(v.ops, 1))/median(plainCal)*1e3, "Mcyc/s")
	pl["harness.raw_host_ns_per_op"] = hostValue(median(perOpSeries(plain, func(s *sample) float64 { return s.rawNS })), "ns")
	pl["harness.rep_iqr_pct"] = hostValue(iqrPct(plainCal), "%")
	share := 0.0
	if strings.HasPrefix(wr.Name, "netserve_") {
		var setup, timed []float64
		for _, s := range plain {
			setup = append(setup, s.setupS*1e9)
			timed = append(timed, s.calNS)
		}
		share = 100 * median(setup) / (median(setup) + median(timed))
	}
	pl["harness.netserve_setup_share_pct"] = hostValue(share, "%")
	wr.PerLayer = pl
}

// writeOutputs stores results.json and, when spans were recorded,
// trace.json under the output directory.
func writeOutputs(o options, res *report.Results, sp *spanRec) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(sp.spans) > 0 {
		return sp.write(filepath.Join(o.outDir, "trace.json"))
	}
	return nil
}

// driverMetrics is the metric set the driver asked for: end-to-end ones
// with --trace 0, per-layer ones (probes included) with --trace 1.
func driverMetrics(o options, res *report.Results) map[string]report.Value {
	w := res.Workloads[0]
	if !o.trace {
		return w.EndToEnd
	}
	out := map[string]report.Value{}
	for k, v := range w.PerLayer {
		out[k] = v
	}
	for k, v := range res.Probes {
		out[k] = v
	}
	return out
}

// driverLine is the one-line JSON result the driver reads.
func driverLine(o options, res *report.Results) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	w := res.Workloads[0]
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: w.Failed == 0, Attempted: max(w.Attempted, 1), Failed: w.Failed, Metrics: map[string]val{}}
	for name, v := range driverMetrics(o, res) {
		line.Metrics[name] = val{v.Value, v.Unit}
	}
	return json.Marshal(line)
}

// printTables prints the human-readable report: the end-to-end table,
// the per-layer matrix and the probes.
func printTables(out *os.File, res *report.Results) {
	fmt.Fprintf(out, "seed %d  scale %s  %s  %d host CPUs\n\n", res.Seed, res.Scale, res.GoVersion, res.NumCPU)
	if len(res.Workloads) > 0 && res.Workloads[0].EndToEnd != nil {
		fmt.Fprintf(out, "%-16s %-10s", "workload", "op")
		for _, m := range endToEnd {
			fmt.Fprintf(out, " %*s", colWidth(m.Name), m.Name)
		}
		fmt.Fprintf(out, " %8s %14s\n", "iqr_pct", "failed_ops_pct")
		fmt.Fprintf(out, "%-16s %-10s", "", "")
		for _, m := range endToEnd {
			fmt.Fprintf(out, " %*s", colWidth(m.Name), "["+m.Unit+"]")
		}
		fmt.Fprintln(out)
		for _, w := range res.Workloads {
			fmt.Fprintf(out, "%-16s %-10s", w.Name, w.Op)
			for _, m := range endToEnd {
				fmt.Fprintf(out, " %*s", colWidth(m.Name), fmtValue(w.EndToEnd[m.Name].Value))
			}
			h := w.EndToEnd["host_cal_ns_per_op"]
			fmt.Fprintf(out, " %8.2f %14.4f\n", 100*(h.Q3-h.Q1)/h.Value, pct(w.Failed, w.Attempted))
		}
		fmt.Fprintln(out)
	}
	if len(res.Workloads) > 0 && res.Workloads[0].PerLayer != nil {
		fmt.Fprintf(out, "%-40s %-8s", "per-layer metric", "unit")
		for _, w := range res.Workloads {
			fmt.Fprintf(out, " %15s", w.Name)
		}
		fmt.Fprintln(out)
		for _, name := range sortedNames(res.Workloads[0].PerLayer) {
			fmt.Fprintf(out, "%-40s %-8s", name, res.Workloads[0].PerLayer[name].Unit)
			for _, w := range res.Workloads {
				fmt.Fprintf(out, " %15s", fmtValue(w.PerLayer[name].Value))
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintln(out)
	}
	if len(res.Probes) > 0 {
		fmt.Fprintf(out, "%-44s %14s %s\n", "layer probe", "value", "unit")
		for _, name := range sortedNames(res.Probes) {
			fmt.Fprintf(out, "%-44s %14s %s\n", name, fmtValue(res.Probes[name].Value), res.Probes[name].Unit)
		}
		fmt.Fprintln(out)
	}
	for _, w := range res.Workloads {
		for _, f := range w.Failures {
			fmt.Fprintf(out, "FAILED %s: %s\n", w.Name, f)
		}
	}
	fmt.Fprintf(out, "total run time %.1f s\n", res.TotalRunS)
}

func sortedNames(m map[string]report.Value) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func colWidth(name string) int { return max(len(name), 10) }

// fmtValue prints about five significant digits.
func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1e6:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case a >= 1:
		return strconv.FormatFloat(v, 'f', 3, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}
