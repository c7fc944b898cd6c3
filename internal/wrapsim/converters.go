// Package wrapsim simulates the analog test wrapper of the paper at the
// behavioural level: the modular pipelined 8-bit ADC built from two
// 4-bit flash stages and a 4-bit interstage DAC (Figure 4a), the modular
// 8-bit DAC built from two 4-bit voltage-steering DACs (Figure 4b), the
// semi-serial TAM registers with their serial-to-parallel ratio, the
// clock divider, and the wrapper's three modes (normal, self-test,
// core-test) of Figure 1.
//
// The paper validates the wrapper with HSPICE transistor-level
// simulations in a 0.5 µm process; this package is the documented
// behavioural substitute (DESIGN.md §2): converters quantize exactly as
// the modular architecture dictates and carry configurable integral
// nonlinearity so the wrapped-core measurement error of Figure 5 has a
// physical cause, not a hand-tuned fudge.
package wrapsim

import (
	"fmt"
	"math"
)

// Flash4 is a 4-bit flash ADC stage: 15 comparators against a resistor
// ladder. INL bows the ladder taps with the classic loaded-ladder shape;
// it is expressed in 8-bit LSB (FullScale/256) so that wrapper-level
// specifications read naturally even though the stage is 4-bit.
type Flash4 struct {
	FullScale float64 // input range [0, FullScale)
	INL       float64 // peak ladder bow, in 8-bit LSB
}

// Convert quantizes v to a 4-bit code, clamping out-of-range inputs.
func (f *Flash4) convert(v float64) uint8 {
	lsb := f.FullScale / 16
	if lsb <= 0 {
		return 0
	}
	// Ladder bow: the effective threshold for code k shifts by
	// (INL/16)·sin(2πk/15) stage LSB — INL is specified in 8-bit LSB.
	// The S-shape differs from the DAC's single bow deliberately:
	// independent converters do not share an error shape, so the
	// DAC→ADC loop exposes both (see the self-test ramp in the tests).
	x := v / lsb
	code := 0
	for k := 1; k < 16; k++ {
		threshold := float64(k) + f.INL/16*math.Sin(2*math.Pi*float64(k)/15)
		if x >= threshold {
			code = k
		}
	}
	return uint8(code)
}

// DAC4 is a 4-bit voltage-steering DAC with a ladder INL, expressed in
// 8-bit LSB like Flash4's. SharedLadder marks a DAC built on the same
// resistor string as a flash stage (the usual trick in modular
// pipelines): its error then takes the flash's S-shape and tracks it,
// keeping the residue hand-off clean; a standalone DAC has the classic
// single bow.
type DAC4 struct {
	FullScale    float64 // output range [0, FullScale)
	INL          float64 // peak bow, in 8-bit LSB
	SharedLadder bool
}

// Convert produces the analog value for a 4-bit code.
func (d *DAC4) convert(code uint8) float64 {
	code &= 0x0F
	lsb := d.FullScale / 16
	shape := math.Sin(math.Pi * float64(code) / 15)
	if d.SharedLadder {
		shape = math.Sin(2 * math.Pi * float64(code) / 15)
	}
	return (float64(code) + d.INL/16*shape) * lsb
}

// Pipeline8 is the modular 8-bit ADC of Figure 4(a): a coarse 4-bit
// flash, a 4-bit DAC reconstructing the coarse estimate, a ×16 residue
// amplifier, and a fine 4-bit flash. 32 comparators instead of the 256
// a flash 8-bit converter would need.
type Pipeline8 struct {
	FullScale    float64
	Coarse, Fine Flash4
	Interstage   DAC4
	ResidueGain  float64 // ideal 16; deviations model amplifier error
}

// newPipeline8 builds the ADC for the given full-scale range with the
// given per-stage INL (LSB units) and residue-gain error (fraction, e.g.
// 0.002 for +0.2%).
func newPipeline8(fullScale, inl, gainError float64) (*Pipeline8, error) {
	if fullScale <= 0 {
		return nil, fmt.Errorf("wrapsim: ADC full scale %v <= 0", fullScale)
	}
	return &Pipeline8{
		FullScale: fullScale,
		Coarse:    Flash4{FullScale: fullScale, INL: inl},
		Fine:      Flash4{FullScale: fullScale, INL: inl},
		// The interstage DAC taps the coarse flash's ladder, so its
		// error tracks the flash and the residue hand-off stays clean.
		Interstage:  DAC4{FullScale: fullScale, INL: inl, SharedLadder: true},
		ResidueGain: 16 * (1 + gainError),
	}, nil
}

// Convert digitizes v into an 8-bit code.
func (p *Pipeline8) convert(v float64) uint8 {
	if v < 0 {
		v = 0
	}
	if v >= p.FullScale {
		v = math.Nextafter(p.FullScale, 0)
	}
	coarse := p.Coarse.convert(v)
	residue := (v - p.Interstage.convert(coarse)) * p.ResidueGain / 16
	// The residue occupies one coarse LSB = FullScale/16; the fine stage
	// digitizes it scaled back to full range.
	fine := p.Fine.convert(residue * 16)
	code := int(coarse)<<4 | int(fine&0x0F)
	if code > 255 {
		code = 255
	}
	if code < 0 {
		code = 0
	}
	return uint8(code)
}

// ConvertAll digitizes a whole signal.
func (p *Pipeline8) convertAll(v []float64) []uint8 {
	out := make([]uint8, len(v))
	for i, x := range v {
		out[i] = p.convert(x)
	}
	return out
}

// Modular8 is the modular 8-bit DAC of Figure 4(b): two 4-bit DACs, the
// LSB one scaled by 1/16, reducing the resistor count by 8x versus a
// single-ladder 8-bit design.
type Modular8 struct {
	FullScale float64
	MSB, LSB  DAC4
}

// newModular8 builds the DAC with the given per-stage INL in LSB.
func newModular8(fullScale, inl float64) (*Modular8, error) {
	if fullScale <= 0 {
		return nil, fmt.Errorf("wrapsim: DAC full scale %v <= 0", fullScale)
	}
	return &Modular8{
		FullScale: fullScale,
		MSB:       DAC4{FullScale: fullScale, INL: inl},
		LSB:       DAC4{FullScale: fullScale, INL: inl},
	}, nil
}

// Convert produces the analog value for an 8-bit code.
func (m *Modular8) convert(code uint8) float64 {
	return m.MSB.convert(code>>4) + m.LSB.convert(code&0x0F)/16
}

// ConvertAll converts a whole code stream.
func (m *Modular8) convertAll(codes []uint8) []float64 {
	out := make([]float64, len(codes))
	for i, c := range codes {
		out[i] = m.convert(c)
	}
	return out
}

// quantizeIdeal converts a voltage in [0, fullScale) to the nearest
// 8-bit code with an ideal (INL-free) characteristic: the digital
// stimulus pattern a tester would compute.
func quantizeIdeal(v, fullScale float64) uint8 {
	if fullScale <= 0 {
		return 0
	}
	c := int(math.Floor(v / fullScale * 256))
	if c < 0 {
		c = 0
	}
	if c > 255 {
		c = 255
	}
	return uint8(c)
}

// codeToVoltage is the ideal inverse of quantizeIdeal (code centers).
func codeToVoltage(code uint8, fullScale float64) float64 {
	return (float64(code) + 0.5) / 256 * fullScale
}
