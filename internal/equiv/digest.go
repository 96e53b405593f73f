package equiv

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Range is a named span of guest memory a scenario reads back.
type Range struct {
	Name  string
	VA    uint32
	Bytes []byte
	// Timing marks contents that hold virtual-time readings (latency
	// samples): only Identical and Untimed compare them.
	Timing bool
}

// DevAccess is one device register access, as a recording device logs it.
type DevAccess struct {
	Write    bool
	Off, Val uint32
	At       uint64 // the CPU clock during the access
}

// Digest is everything the harness knows about one run.
type Digest struct {
	Mem      []Range
	Dev      []DevAccess
	Dirty    []int             // dirty-log sizes a scenario sampled
	Restarts map[string]uint64 // Table 3 causes; nil without metrics
	Stats    core.Stats
	Clocks   []uint64            // per-CPU virtual clocks
	Faults   [][2]uint32         // (VA, class|side<<8) of every fault, in order; needs a tracer
	Images   []*checkpoint.Image // memory of every live space: contents, COW marks, frame sharing
	Profile  *profile.Snapshot   // nil without the profiler
	// Counters are host-side work counters for the vacuity guards; they
	// are never compared.
	Counters map[string]uint64
}

// Take digests kernel k after a run; the scenario adds Mem, Dev and
// Dirty. It also checks the profiler's double entry: every cycle Stats
// charged is attributed exactly once.
func Take(t *testing.T, k *core.Kernel) *Digest {
	t.Helper()
	st, es := k.Stats(), k.ExecStats()
	d := &Digest{Stats: st, Counters: map[string]uint64{
		"PagesDecoded": es.PagesDecoded, "BlocksBuilt": es.BlocksBuilt, "BlockHits": es.BlockHits,
		"LoopPasses": es.LoopPasses, "LoopSkips": es.LoopSkips, "StaleResets": es.StaleResets, "FastpathHits": st.FastpathHits,
		"ZeroCopyShares": st.ZeroCopyShares, "ZeroCopyCOWBreaks": st.ZeroCopyCOWBreaks,
	}}
	for i := 0; i < k.NumCPUs(); i++ {
		d.Clocks = append(d.Clocks, k.CPUNow(i))
	}
	if k.Metrics != nil {
		d.Restarts = map[string]uint64{}
		for i, n := range k.Metrics.RestartsByCause() {
			d.Restarts[core.FaultCauseNames[i]] = n
		}
	}
	if k.Tracer != nil {
		if k.Tracer.Dropped() != 0 {
			t.Fatal("trace ring overflowed")
		}
		for _, ev := range k.Tracer.Events() {
			if ev.Kind == trace.Fault {
				d.Faults = append(d.Faults, [2]uint32{ev.A, ev.B})
			}
		}
	}
	if k.ProfileEnabled() {
		snap := k.ProfileSnapshot()
		if got, want := snap.TotalCycles(), st.TotalCycles(); got != want {
			t.Fatalf("profiler attributed %d cycles, Stats charged %d", got, want)
		}
		d.Profile, d.Counters["ProfiledCycles"] = &snap, snap.TotalCycles()
	}
	for _, s := range k.Spaces() {
		if s.Dead {
			continue
		}
		img, err := checkpoint.SnapshotMemory(k, s)
		if err != nil {
			t.Fatal(err)
		}
		d.Images = append(d.Images, img)
	}
	return d
}

// Read reads n bytes of space s at va as a named range.
func Read(t *testing.T, k *core.Kernel, s *obj.Space, name string, va uint32, n int) Range {
	t.Helper()
	b, err := k.ReadMem(s, va, n)
	if err != nil {
		t.Fatal(err)
	}
	return Range{Name: name, VA: va, Bytes: b}
}

// fields are the digest fields in the order Diff reports them; each is
// compared by every class up to and including upTo.
var fields = []struct {
	upTo Class
	diff func(a, b *Digest, c Class) string
}{
	{Memory, diffMem},
	{Memory, func(a, b *Digest, c Class) string {
		return diffValue("device access", reflect.ValueOf(devLog(a.Dev, c)), reflect.ValueOf(devLog(b.Dev, c)))
	}},
	{Guest, func(a, b *Digest, _ Class) string {
		if a.Restarts == nil || b.Restarts == nil {
			return "" // only one run had metrics on
		}
		return diffValue("restarts", reflect.ValueOf(a.Restarts), reflect.ValueOf(b.Restarts))
	}},
	{Guest, func(a, b *Digest, _ Class) string {
		noCOW := func(m map[core.FaultKey]uint64) map[core.FaultKey]uint64 {
			out := map[core.FaultKey]uint64{}
			for k, v := range m {
				if k.Class != mmu.FaultCOW {
					out[k] = v
				}
			}
			return out
		}
		return diffValue("Stats.FaultCount", reflect.ValueOf(noCOW(a.Stats.FaultCount)), reflect.ValueOf(noCOW(b.Stats.FaultCount)))
	}},
	{Untimed, field("Stats", func(d *Digest) any { return d.Stats })},
	{Untimed, field("clock", func(d *Digest) any { return d.Clocks })},
	{Untimed, field("fault trace", func(d *Digest) any { return d.Faults })},
	{Untimed, field("dirty log", func(d *Digest) any { return d.Dirty })},
	{Untimed, func(a, b *Digest, _ Class) string {
		if len(a.Images) != len(b.Images) {
			return fmt.Sprintf("spaces: %d vs %d", len(a.Images), len(b.Images))
		}
		for i := range a.Images {
			if err := ImageMemEqual(a.Images[i], b.Images[i]); err != nil {
				return fmt.Sprintf("space %d memory image: %v", i, err)
			}
		}
		return ""
	}},
	{Untimed, func(a, b *Digest, c Class) string {
		if a.Profile == nil || b.Profile == nil {
			return "" // only one run had the profiler on
		}
		pa, pb := a.Profile.Samples, b.Profile.Samples
		if c == Untimed {
			pa, pb = userPCsMerged(pa), userPCsMerged(pb)
		}
		for i := range max(len(pa), len(pb)) {
			if i >= len(pa) || i >= len(pb) || pa[i] != pb[i] {
				return fmt.Sprintf("profile sample %d: %s vs %s", i, sample(pa, i), sample(pb, i))
			}
		}
		return diffValue("profile overflow", reflect.ValueOf(a.Profile.Overflow), reflect.ValueOf(b.Profile.Overflow))
	}},
}

// field compares the value get reads from each digest.
func field(name string, get func(*Digest) any) func(a, b *Digest, _ Class) string {
	return func(a, b *Digest, _ Class) string {
		return diffValue(name, reflect.ValueOf(get(a)), reflect.ValueOf(get(b)))
	}
}

// userPCsMerged folds away the guest-PC bucket of user-mode samples. A
// batch charges its user cycles at the PC it stopped at; with the fast
// paths off every instruction is its own batch.
func userPCsMerged(in []profile.Sample) []profile.Sample {
	var out []profile.Sample
	for _, s := range in {
		if s.Path == profile.PathUser {
			s.PCBucket = 0
			if n := len(out); n > 0 && out[n-1].Path == s.Path && out[n-1].Sys == s.Sys && out[n-1].PCBucket == 0 {
				out[n-1].Cycles += s.Cycles
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

func sample(s []profile.Sample, i int) string {
	if i >= len(s) {
		return "none"
	}
	return fmt.Sprintf("%s;%s;%s %d", s[i].SysName(), s[i].Path, s[i].PCLabel(), s[i].Cycles)
}

// Diff names the first field in which a and b differ under class c, or
// returns "". Memory is reported as range, address, page and offset;
// Stats by field (and map key or array index); the device log by access
// index.
func Diff(a, b *Digest, c Class) string {
	for _, f := range fields {
		if c <= f.upTo {
			if s := f.diff(a, b, c); s != "" {
				return s
			}
		}
	}
	return ""
}

func diffMem(a, b *Digest, c Class) string {
	if len(a.Mem) != len(b.Mem) {
		return fmt.Sprintf("memory: %d vs %d ranges", len(a.Mem), len(b.Mem))
	}
	for i, ra := range a.Mem {
		rb := b.Mem[i]
		if ra.Name != rb.Name || ra.VA != rb.VA || len(ra.Bytes) != len(rb.Bytes) {
			return fmt.Sprintf("memory range %d: %q at %#x+%d vs %q at %#x+%d",
				i, ra.Name, ra.VA, len(ra.Bytes), rb.Name, rb.VA, len(rb.Bytes))
		}
		if ra.Timing && c > Untimed || bytes.Equal(ra.Bytes, rb.Bytes) {
			continue
		}
		off := 0
		for ra.Bytes[off] == rb.Bytes[off] {
			off++
		}
		va := ra.VA + uint32(off)
		return fmt.Sprintf("memory %q at %#x (page %#x offset %#x): %#02x vs %#02x",
			ra.Name, va, va>>mem.PageShift, va%mem.PageSize, ra.Bytes[off], rb.Bytes[off])
	}
	return ""
}

// devLog is the device log as class c compares it: Identical alone keeps
// the clock readings.
func devLog(log []DevAccess, c Class) []DevAccess {
	if c == Identical {
		return log
	}
	out := slices.Clone(log)
	for i := range out {
		out[i].At = 0
	}
	return out
}

// diffValue names the first differing struct field, map key or element
// below path.
func diffValue(path string, a, b reflect.Value) string {
	if reflect.DeepEqual(a.Interface(), b.Interface()) {
		return ""
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if s := diffValue(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); s != "" {
				return s
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		for i := range max(a.Len(), b.Len()) {
			if i >= a.Len() || i >= b.Len() {
				return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
			}
			if s := diffValue(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); s != "" {
				return s
			}
		}
		return ""
	case reflect.Map:
		keys := append(a.MapKeys(), b.MapKeys()...)
		slices.SortFunc(keys, func(x, y reflect.Value) int {
			return strings.Compare(fmt.Sprint(x), fmt.Sprint(y))
		})
		for _, k := range keys {
			if s := diffValue(fmt.Sprintf("%s[%+v]", path, k), mapIndex(a, k), mapIndex(b, k)); s != "" {
				return s
			}
		}
		return ""
	}
	if !a.Equal(b) {
		return fmt.Sprintf("%s: %v vs %v", path, a, b)
	}
	return ""
}

// mapIndex reads m[k]; an absent key reads as zero.
func mapIndex(m, k reflect.Value) reflect.Value {
	if v := m.MapIndex(k); v.IsValid() {
		return v
	}
	return reflect.Zero(m.Type().Elem())
}

// ImageMemEqual compares the memory side of two images the way Restore
// consumes it: region shapes, present-page sets, page contents, per-page
// COW marks, and the sharing partition (which slots alias one frame).
// Frame *indexes* are allowed to differ — they are an encoding detail —
// but must correspond one to one.
func ImageMemEqual(a, b *checkpoint.Image) error {
	if len(a.Regions) != len(b.Regions) {
		return fmt.Errorf("region count %d vs %d", len(a.Regions), len(b.Regions))
	}
	toB, toA := map[int32]int32{}, map[int32]int32{}
	for i := range a.Regions {
		ra, rb := a.Regions[i], b.Regions[i]
		if ra.Size != rb.Size || ra.DemandZero != rb.DemandZero || ra.PagerPortVA != rb.PagerPortVA {
			return fmt.Errorf("region %d shape differs", i)
		}
		if len(ra.Pages) != len(rb.Pages) {
			return fmt.Errorf("region %d: page tables of %d vs %d entries", i, len(ra.Pages), len(rb.Pages))
		}
		for p, fa := range ra.Pages {
			fb := rb.Pages[p]
			switch {
			case (fa < 0) != (fb < 0):
				return fmt.Errorf("region %d page %d present only in one image", i, p)
			case fa < 0:
			case !bytes.Equal(a.Frames[fa].Data, b.Frames[fb].Data):
				return fmt.Errorf("region %d page %d contents differ", i, p)
			case a.Frames[fa].Cow != b.Frames[fb].Cow:
				return fmt.Errorf("region %d page %d cow %v vs %v", i, p, a.Frames[fa].Cow, b.Frames[fb].Cow)
			default:
				if x, ok := toB[fa]; ok && x != fb {
					return fmt.Errorf("sharing partition differs at region %d page %d", i, p)
				}
				if x, ok := toA[fb]; ok && x != fa {
					return fmt.Errorf("sharing partition differs at region %d page %d", i, p)
				}
				toB[fa], toA[fb] = fb, fa
			}
		}
	}
	return nil
}
