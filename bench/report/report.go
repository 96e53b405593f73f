// Package report holds the two JSON shapes the benchmark shares with
// benchdiff: the BENCHMARK.json specification at the repository root
// (metric names, units, directions and regression bounds) and the
// results file one full benchmark invocation writes.
package report

import (
	"encoding/json"
	"fmt"
	"os"
)

// EndToEndMetric is one end_to_end entry of BENCHMARK.json. Bound is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression.
type EndToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LayerMetric is one per_layer entry of BENCHMARK.json.
type LayerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// WorkloadSpec names one workload and why it was chosen.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec mirrors BENCHMARK.json.
type Spec struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []WorkloadSpec   `json:"workloads"`
	EndToEnd   []EndToEndMetric `json:"end_to_end"`
	PerLayer   []LayerMetric    `json:"per_layer"`
}

// Clocks a value can be measured on. Virtual values come from the
// modelled kernel and repeat exactly for one seed; host values measure
// the simulator itself and carry the sandbox's noise.
const (
	ClockVirtual = "virtual"
	ClockHost    = "host"
)

// Value is one reported number. Q1, Q3 and N describe the per-repetition
// samples behind a host-clock headline (zero when the value is a single
// reading).
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// WorkloadResult is everything one workload reported.
type WorkloadResult struct {
	Name      string           `json:"name"`
	Op        string           `json:"op"`
	Inputs    any              `json:"inputs"`
	Ops       uint64           `json:"ops_per_rep"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	EndToEnd  map[string]Value `json:"end_to_end,omitempty"`
	PerLayer  map[string]Value `json:"per_layer,omitempty"`
}

// Results is the file one invocation writes (bench/out/results.json).
type Results struct {
	Seed      uint64           `json:"seed"`
	Scale     string           `json:"scale"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Workloads []WorkloadResult `json:"workloads"`
	Probes    map[string]Value `json:"probes,omitempty"`
	TotalRunS float64          `json:"total_run_s"`
}

// Load reads a JSON file into v, rejecting unknown fields so a typo in a
// hand-edited BENCHMARK.json does not pass silently.
func Load(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
