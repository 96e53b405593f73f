package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/bench/report"
)

// smokeRun is one whole invocation at smoke scale: all six workloads,
// two timed repetitions each, the traced pass and the probes.
func smokeRun(t *testing.T, seed uint64) (*report.Results, string) {
	t.Helper()
	o := options{seed: seed, trace: true, reps: 2, probes: true, smoke: true, outDir: t.TempDir()}
	res, sp, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeOutputs(o, res, sp); err != nil {
		t.Fatal(err)
	}
	return res, o.outDir
}

// virtualValues flattens every virtual-clock value of a run.
func virtualValues(res *report.Results) map[string]float64 {
	out := map[string]float64{}
	add := func(scope string, m map[string]report.Value) {
		for name, v := range m {
			if v.Clock == report.ClockVirtual {
				out[scope+"/"+name] = v.Value
			}
		}
	}
	for _, w := range res.Workloads {
		add(w.Name, w.EndToEnd)
		add(w.Name, w.PerLayer)
	}
	add("probes", res.Probes)
	return out
}

func TestSmoke(t *testing.T) {
	res, outDir := smokeRun(t, 1)
	sp := spec()

	if len(res.Workloads) != len(sp.Workloads) {
		t.Fatalf("%d workloads reported, %d in the catalogue", len(res.Workloads), len(sp.Workloads))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || len(w.Failures) != 0 {
			// Includes "profiler paths sum to N cycles, TotalCycles is M"
			// and "virtual numbers differ between repetitions".
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		if w.Attempted == 0 {
			t.Errorf("%s: no operation attempted", w.Name)
		}
		for _, m := range sp.EndToEnd {
			v, ok := w.EndToEnd[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive finite value", w.Name, m.Name, v.Value, ok)
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, catalogue says %q", w.Name, m.Name, v.Unit, m.Unit)
			}
		}
		for _, m := range sp.PerLayer {
			v, ok := w.PerLayer[m.Name]
			if !ok {
				v, ok = res.Probes[m.Name]
			}
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v), want a finite value", w.Name, m.Name, v.Value, ok)
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, catalogue says %q", w.Name, m.Name, v.Unit, m.Unit)
			}
		}
		if extra := len(w.PerLayer) + len(res.Probes) - len(sp.PerLayer); extra != 0 {
			t.Errorf("%s: %d per-layer values reported beyond the catalogue", w.Name, extra)
		}
	}

	// The driver's result line carries exactly the selected metric set.
	for _, trace := range []bool{false, true} {
		one := &report.Results{Workloads: res.Workloads[:1], Probes: res.Probes}
		line, err := driverLine(options{trace: trace}, one)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool
			Attempted *uint64
			Failed    *uint64
			Metrics   map[string]map[string]any
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		want := len(sp.EndToEnd)
		if trace {
			want = len(sp.PerLayer)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || len(got.Metrics) != want {
			t.Errorf("driver line (trace %v) = %s, want correct with %d metrics", trace, line, want)
		}
	}

	// trace.json is a Perfetto-loadable list of complete events whose
	// parents precede them.
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct {
				ID, Parent int
				Workload   string
				SelfUS     float64 `json:"self_us"`
			}
		}
	}
	data, err := os.ReadFile(filepath.Join(outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, e := range tr.TraceEvents {
		names[e.Name] = true
		if e.Ph != "X" || e.Args.ID != i || e.Args.Parent >= i || e.Args.SelfUS < 0 || e.Args.SelfUS > e.Dur+1e-3 {
			t.Fatalf("span %d malformed: %+v", i, e)
		}
	}
	for _, want := range []string{"core.New", "workload.NewGCC", "workload.NewNetserve", "Workload.Run", "Workload.Check",
		"checkpoint.MigratePrecopy", "probe.cpu.StepN", "rep.traced"} {
		if !names[want] {
			t.Errorf("trace.json has no %q span", want)
		}
	}
}

func TestSeedsAndDeterminism(t *testing.T) {
	a, _ := smokeRun(t, 1)
	b, _ := smokeRun(t, 1)
	if va, vb := virtualValues(a), virtualValues(b); !reflect.DeepEqual(va, vb) {
		for k, v := range va {
			if vb[k] != v {
				t.Errorf("same seed, different virtual value: %s %v vs %v", k, v, vb[k])
			}
		}
	}
	// Another seed, other inputs (smoke sizes are small, so two seeds may
	// collide on one workload; five may not).
	first := instantiate(1, true)
	for i, w := range first {
		moved := false
		for seed := uint64(2); seed <= 5; seed++ {
			moved = moved || !reflect.DeepEqual(w.inputs, instantiate(seed, true)[i].inputs)
		}
		if !moved {
			t.Errorf("%s: seeds 1..5 all generated the inputs %+v", w.def.name, w.inputs)
		}
	}
}

// TestSpecMatchesCatalogue pins BENCHMARK.json to the metric catalogue
// and the catalogue to the driver's contract.
func TestSpecMatchesCatalogue(t *testing.T) {
	sp := spec()
	var onDisk report.Spec
	if err := report.Load(filepath.Join("..", "BENCHMARK.json"), &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, onDisk) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}
