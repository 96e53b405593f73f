package main

import (
	"strings"
	"testing"

	"repro/bench/report"
)

func TestVerdict(t *testing.T) {
	m := report.EndToEndMetric{Name: "host_cal_ns_per_op", Unit: "ns", Better: "lower", Bound: 0.10}
	host := func(v, q1, q3 float64) report.Value { return report.Value{Value: v, Q1: q1, Q3: q3, N: 15} }
	for _, tc := range []struct {
		name      string
		o, n      report.Value
		regressed bool
		word      string
	}{
		{"within bound", host(100, 99, 101), host(105, 104, 106), false, "+5.00%"},
		{"beyond bound", host(100, 99, 101), host(115, 114, 116), true, "WORSE"},
		{"too noisy to tell", host(100, 90, 110), host(115, 105, 125), false, "unresolved"},
		{"noisy but clearly better", host(100, 90, 110), host(70, 65, 75), false, "better"},
		{"virtual value, exact", report.Value{Value: 100}, report.Value{Value: 111}, true, "WORSE"},
	} {
		text, regressed := verdict(m, tc.o, tc.n)
		if regressed != tc.regressed || !strings.Contains(text, tc.word) {
			t.Errorf("%s: verdict = %q, regressed %v; want %q, regressed %v", tc.name, text, regressed, tc.word, tc.regressed)
		}
	}
}

func TestVirtualDiffsAndFailures(t *testing.T) {
	mk := func(cycles float64, failed uint64) *report.Results {
		return &report.Results{Workloads: []report.WorkloadResult{{
			Name: "w", Attempted: 10, Failed: failed,
			EndToEnd: map[string]report.Value{
				"virt_cycles_per_op": {Value: cycles, Clock: report.ClockVirtual},
				"host_cal_ns_per_op": {Value: cycles * 3, Clock: report.ClockHost},
			},
		}}}
	}
	if n := virtualDiffs(mk(100, 0), mk(100, 0)); n != 0 {
		t.Errorf("identical runs: %d virtual differences", n)
	}
	if n := virtualDiffs(mk(100, 0), mk(100.5, 0)); n != 1 {
		t.Errorf("one moved virtual value: %d differences, want 1 (host values must not count)", n)
	}
	spec := report.Spec{EndToEnd: []report.EndToEndMetric{{Name: "virt_cycles_per_op", Better: "lower", Bound: 0.02}}}
	if n := compare(spec, mk(100, 0), mk(100, 1)); n != 1 {
		t.Errorf("a rise in failed operations gave %d findings, want 1", n)
	}
	if n := compare(spec, mk(100, 0), mk(101, 0)); n != 0 {
		t.Errorf("a 1%% move inside a 2%% bound gave %d findings, want 0", n)
	}
}
