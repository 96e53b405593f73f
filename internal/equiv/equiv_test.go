package equiv

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
)

// TestDiffNamesFirstField pins the first line of a failure for each kind
// of field: a memory byte (page and offset), a Stats field (and map key),
// a device access (by index) — and the replay command that follows it.
func TestDiffNamesFirstField(t *testing.T) {
	base := func() *Digest {
		return &Digest{
			Mem:   []Range{{Name: "area A", VA: 0x41000, Bytes: []byte{1, 2, 3, 4}}},
			Dev:   []DevAccess{{Write: true, Off: 4, Val: 7, At: 100}, {Off: 0x10, Val: 9, At: 120}},
			Stats: core.Stats{Syscalls: 3, FaultCount: map[core.FaultKey]uint64{{Class: mmu.FaultHard}: 2}},
		}
	}
	for _, tc := range []struct {
		name   string
		class  Class
		change func(d *Digest)
		want   string
	}{
		{"memory", Guest, func(d *Digest) { d.Mem[0].Bytes[2] = 9; d.Stats.Syscalls = 4 },
			`memory "area A" at 0x41002 (page 0x41 offset 0x2): 0x03 vs 0x09`},
		{"stats field", Untimed, func(d *Digest) { d.Stats.Syscalls = 4 },
			"Stats.Syscalls: 3 vs 4"},
		{"stats map key", Identical, func(d *Digest) { d.Stats.FaultCount[core.FaultKey{Class: mmu.FaultHard}] = 5 },
			"Stats.FaultCount[{Class:hard Side:0}]: 2 vs 5"},
		{"device access", Identical, func(d *Digest) { d.Dev[1].Val = 8 },
			"device access[1].Val: 9 vs 8"},
		{"device clock, untimed", Untimed, func(d *Digest) { d.Dev[1].At = 130 }, ""},
		{"device clock", Identical, func(d *Digest) { d.Dev[1].At = 130 },
			"device access[1].At: 120 vs 130"},
		{"stats, memory class", Memory, func(d *Digest) { d.Stats.Syscalls = 4 }, ""},
	} {
		b := base()
		tc.change(b)
		if got := Diff(base(), b, tc.class); got != tc.want {
			t.Errorf("%s: Diff = %q, want %q", tc.name, got, tc.want)
		}
	}
	want := `; replay: go test ./internal/equiv -run '^TestX$/^Process_NP$/^cpus=1$/^big$'`
	if got := Replay("TestX/Process_NP/cpus=1/big"); got != want {
		t.Errorf("Replay = %q, want %q", got, want)
	}
}
