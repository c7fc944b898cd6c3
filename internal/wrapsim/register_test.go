package wrapsim

import (
	"fmt"
	"testing"
	"testing/quick"

	"mixsoc/internal/asim"
)

// The helpers below, test oracles only (the Figure 5 experiment never
// serializes), model the digital transport of Figure 1: the registers
// at each end of the data converters, written and read "in a
// semi-serial fashion depending on the frequency requirement of each
// test". A sample's Resolution bits travel over TAMWidth wires,
// taking ceil(Resolution/TAMWidth) TAM clock cycles (the
// serial-to-parallel ratio); one sample is exchanged every
// divideRatio cycles.
//
// PatternSet turns stimulus codes and expected response codes into the
// cycle-by-cycle TAM bit patterns a digital tester applies — the
// concrete sense in which the wrapped analog core is a "virtual digital
// core".

// Serialize converts sample codes into TAM wire patterns: one []bool
// per TAM cycle, least significant bits first, padded to the
// serial-to-parallel ratio and idle until the next sample boundary.
// width is the number of TAM wires; bits the code width.
func Serialize(codes []uint8, bits, width, cyclesPerSample int) ([][]bool, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("wrapsim: serialize bits %d out of [1,8]", bits)
	}
	if width < 1 {
		return nil, fmt.Errorf("wrapsim: serialize width %d < 1", width)
	}
	transfer := (bits + width - 1) / width
	if cyclesPerSample < transfer {
		return nil, fmt.Errorf("wrapsim: %d cycles per sample cannot carry %d transfer cycles", cyclesPerSample, transfer)
	}
	out := make([][]bool, 0, len(codes)*cyclesPerSample)
	for _, code := range codes {
		bit := 0
		for c := 0; c < cyclesPerSample; c++ {
			cycle := make([]bool, width)
			if c < transfer {
				for w := 0; w < width && bit < bits; w++ {
					cycle[w] = code&(1<<uint(bit)) != 0
					bit++
				}
			}
			out = append(out, cycle)
		}
	}
	return out, nil
}

// Deserialize is the inverse of Serialize: it reassembles sample codes
// from TAM wire patterns. The cycle count must be a whole number of
// sample periods.
func Deserialize(cycles [][]bool, bits, width, cyclesPerSample int) ([]uint8, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("wrapsim: deserialize bits %d out of [1,8]", bits)
	}
	if width < 1 {
		return nil, fmt.Errorf("wrapsim: deserialize width %d < 1", width)
	}
	transfer := (bits + width - 1) / width
	if cyclesPerSample < transfer {
		return nil, fmt.Errorf("wrapsim: %d cycles per sample cannot carry %d transfer cycles", cyclesPerSample, transfer)
	}
	if len(cycles)%cyclesPerSample != 0 {
		return nil, fmt.Errorf("wrapsim: %d cycles is not a whole number of %d-cycle samples", len(cycles), cyclesPerSample)
	}
	n := len(cycles) / cyclesPerSample
	out := make([]uint8, n)
	for s := 0; s < n; s++ {
		var code uint8
		bit := 0
		for c := 0; c < transfer; c++ {
			row := cycles[s*cyclesPerSample+c]
			if len(row) != width {
				return nil, fmt.Errorf("wrapsim: cycle %d has %d wires, want %d", s*cyclesPerSample+c, len(row), width)
			}
			for w := 0; w < width && bit < bits; w++ {
				if row[w] {
					code |= 1 << uint(bit)
				}
				bit++
			}
		}
		out[s] = code
	}
	return out, nil
}

// PatternSet is the complete digital test for one wrapped-core capture:
// the stimulus bits to drive into the wrapper and the expected response
// bits to compare, cycle by cycle, plus bookkeeping that ties it to the
// TAM schedule.
type PatternSet struct {
	Width    int      // TAM wires
	Stimulus [][]bool // one row per TAM cycle
	Expected [][]bool // same shape as Stimulus
	Cycles   int64    // len(Stimulus), the schedule cost of the capture
}

// BuildPatternSet runs the wrapper over the stimulus codes and packages
// both directions as TAM bit patterns. The wrapper must be in self-test
// or core-test mode.
func (w *Wrapper) BuildPatternSet(stimulus []uint8, path analogPath) (*PatternSet, error) {
	response, err := w.applyCodes(stimulus, path)
	if err != nil {
		return nil, err
	}
	cps := w.divideRatio()
	stimBits, err := Serialize(stimulus, w.cfg.Resolution, w.cfg.TAMWidth, cps)
	if err != nil {
		return nil, err
	}
	respBits, err := Serialize(response, w.cfg.Resolution, w.cfg.TAMWidth, cps)
	if err != nil {
		return nil, err
	}
	return &PatternSet{
		Width:    w.cfg.TAMWidth,
		Stimulus: stimBits,
		Expected: respBits,
		Cycles:   int64(len(stimBits)),
	}, nil
}

func TestSerializeDeserializeRoundTrip(t *testing.T) {
	codes := []uint8{0x00, 0xFF, 0xA5, 0x5A, 0x01, 0x80}
	for _, width := range []int{1, 2, 4, 8} {
		for _, cps := range []int{8, 10, 29} {
			if cps < (8+width-1)/width {
				continue
			}
			bits, err := Serialize(codes, 8, width, cps)
			if err != nil {
				t.Fatalf("width %d cps %d: %v", width, cps, err)
			}
			if len(bits) != len(codes)*cps {
				t.Fatalf("width %d cps %d: %d cycles, want %d", width, cps, len(bits), len(codes)*cps)
			}
			back, err := Deserialize(bits, 8, width, cps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range codes {
				if back[i] != codes[i] {
					t.Fatalf("width %d cps %d: code %d came back %02x, want %02x", width, cps, i, back[i], codes[i])
				}
			}
		}
	}
}

func TestSerializeErrors(t *testing.T) {
	if _, err := Serialize([]uint8{1}, 0, 1, 8); err == nil {
		t.Error("bits 0 accepted")
	}
	if _, err := Serialize([]uint8{1}, 8, 0, 8); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := Serialize([]uint8{1}, 8, 1, 4); err == nil {
		t.Error("insufficient cycles per sample accepted")
	}
	if _, err := Deserialize([][]bool{{true}}, 8, 1, 8); err == nil {
		t.Error("partial sample accepted")
	}
	if _, err := Deserialize([][]bool{{true, false}}, 1, 1, 1); err == nil {
		t.Error("wrong wire count accepted")
	}
	if _, err := Deserialize(nil, 8, 1, 4); err == nil {
		t.Error("insufficient cps accepted in deserialize")
	}
}

func TestSerializeProperty(t *testing.T) {
	f := func(codes []uint8, widthRaw, slackRaw uint8) bool {
		if len(codes) == 0 {
			return true
		}
		if len(codes) > 64 {
			codes = codes[:64]
		}
		width := int(widthRaw%8) + 1
		transfer := (8 + width - 1) / width
		cps := transfer + int(slackRaw%8)
		bits, err := Serialize(codes, 8, width, cps)
		if err != nil {
			return false
		}
		back, err := Deserialize(bits, 8, width, cps)
		if err != nil || len(back) != len(codes) {
			return false
		}
		for i := range codes {
			if back[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuildPatternSet(t *testing.T) {
	w, err := New(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setMode(CoreTest); err != nil {
		t.Fatal(err)
	}
	fs := w.effectiveSampleRate()
	filt, err := asim.ButterworthLowpass(2, 60e3, fs)
	if err != nil {
		t.Fatal(err)
	}
	path := func(x []float64, _ float64) []float64 { return filt.ProcessAll(x) }

	stim, err := asim.MultiTone([]asim.Tone{{Freq: 20e3, Amp: 1}}, fs, 256)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]uint8, len(stim))
	for i, v := range stim {
		codes[i] = quantizeIdeal(v+2, 4)
	}

	ps, err := w.BuildPatternSet(codes, path)
	if err != nil {
		t.Fatal(err)
	}
	// The pattern cost equals the wrapper's schedule cost for the same
	// number of samples — the link between wrapsim and the TAM planner.
	if ps.Cycles != w.TestCycles(len(codes)) {
		t.Errorf("pattern cycles %d != schedule cycles %d", ps.Cycles, w.TestCycles(len(codes)))
	}
	if ps.Width != 1 {
		t.Errorf("width = %d", ps.Width)
	}
	if len(ps.Stimulus) != len(ps.Expected) {
		t.Error("stimulus/expected shape mismatch")
	}
	// Stimulus bits decode back to the original codes.
	back, err := Deserialize(ps.Stimulus, 8, ps.Width, w.divideRatio())
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if back[i] != codes[i] {
			t.Fatalf("stimulus pattern corrupted at %d", i)
		}
	}
	// Expected bits decode to the wrapper's actual response.
	want, err := w.applyCodes(codes, path)
	if err != nil {
		t.Fatal(err)
	}
	gotResp, err := Deserialize(ps.Expected, 8, ps.Width, w.divideRatio())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if gotResp[i] != want[i] {
			t.Fatalf("expected pattern corrupted at %d", i)
		}
	}

	// Normal mode refuses.
	if err := w.setMode(Normal); err != nil {
		t.Fatal(err)
	}
	if _, err := w.BuildPatternSet(codes, path); err == nil {
		t.Error("pattern set built in normal mode")
	}
}
