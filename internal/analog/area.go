package analog

import (
	"fmt"
	"math"
)

// AreaModel estimates the silicon area of one analog test wrapper, in
// arbitrary consistent units, from its requirements. Only ratios of
// areas matter to the cost C_A.
type AreaModel interface {
	WrapperArea(req Requirements) float64
}

// ConverterInventory counts the dominant components of the wrapper's
// data converters for a given resolution, following Section 5 of the
// paper: a modular pipelined n-bit ADC built from two n/2-bit flash
// stages plus an n/2-bit interstage DAC, and a modular voltage-steering
// n-bit DAC built from two n/2-bit DACs.
type ConverterInventory struct {
	Comparators int // ADC comparators: 2·2^(n/2) (flash would need 2^n)
	Resistors   int // ADC interstage + DAC ladders: 3·2^(n/2) (flash DAC: 2^n)
}

// ModularInventory returns the component counts of the modular
// architecture for an n-bit wrapper (n must be even and positive).
func ModularInventory(bits int) (ConverterInventory, error) {
	if bits <= 0 || bits%2 != 0 {
		return ConverterInventory{}, fmt.Errorf("analog: modular converter needs positive even resolution, got %d", bits)
	}
	half := 1 << (bits / 2)
	return ConverterInventory{Comparators: 2 * half, Resistors: 3 * half}, nil
}

// FlashInventory returns the component counts of a non-modular flash
// implementation, the paper's point of comparison ("an 8-bit flash
// architecture typically requires 256 comparators").
func FlashInventory(bits int) (ConverterInventory, error) {
	if bits <= 0 {
		return ConverterInventory{}, fmt.Errorf("analog: flash converter needs positive resolution, got %d", bits)
	}
	full := 1 << bits
	return ConverterInventory{Comparators: full, Resistors: full}, nil
}

// PhysicalModel prices a wrapper from its component inventory. The
// default constants make a comparator the unit of area; resistors and
// register bits are fractions of it, and a gentle speed factor grows the
// converter area with the sampling rate (faster converters need larger
// devices and bias currents). Values are heuristic but documented; only
// area ratios enter the planner.
type PhysicalModel struct {
	ComparatorArea float64 // per comparator; default 1.0
	ResistorArea   float64 // per ladder resistor; default 0.15
	RegisterArea   float64 // per register bit; default 0.08
	EncoderArea    float64 // per encoder/decoder bit-lane; default 0.5
	SpeedFactor    float64 // area growth per doubling of fs above 1 MHz; default 0.15
}

// DefaultPhysicalModel returns the model with the documented defaults.
func DefaultPhysicalModel() PhysicalModel {
	return PhysicalModel{
		ComparatorArea: 1.0,
		ResistorArea:   0.15,
		RegisterArea:   0.08,
		EncoderArea:    0.5,
		SpeedFactor:    0.15,
	}
}

// WrapperArea implements AreaModel.
func (pm PhysicalModel) WrapperArea(req Requirements) float64 {
	bits := req.Resolution
	if bits%2 != 0 {
		bits++ // converters come in even sizes
	}
	inv, err := ModularInventory(bits)
	if err != nil {
		// Resolution was validated upstream; a failure here is a
		// programming error.
		panic(err)
	}
	converters := float64(inv.Comparators)*pm.ComparatorArea + float64(inv.Resistors)*pm.ResistorArea
	registers := 2 * float64(req.Resolution) * pm.RegisterArea
	encdec := float64(req.Resolution+req.TAMWidth) * pm.EncoderArea

	speed := 1.0
	if req.Fsample > MHz {
		speed += pm.SpeedFactor * math.Log2(float64(req.Fsample/MHz))
	}
	return (converters + registers + encdec) * speed
}

// unitAreaModel prices every wrapper at 1.0 regardless of requirements.
// Combined with the MaxMemberArea rule and routing factor δ = 0.15, it
// reproduces the paper's published Table 1 C_A values exactly (e.g.
// {A,C} → (1.15+3)/5 = 83.0, {A,B,C} → (1.3+2)/5 = 66.0,
// {A,B,C,E} → (1.45+1)/5 = 49.0); see analog.PaperCostModel.
type unitAreaModel struct{}

// WrapperArea implements AreaModel.
func (unitAreaModel) WrapperArea(Requirements) float64 { return 1 }

// SharedAreaRule selects how the area of a wrapper shared by several
// cores is determined.
type SharedAreaRule int

const (
	// MergedRequirements sizes the shared wrapper for the union of its
	// cores' requirements (the physically faithful reading of Section 3's
	// sizing rule). This is the default.
	MergedRequirements SharedAreaRule = iota
	// MaxMemberArea prices the shared wrapper at the maximum of its
	// members' standalone wrapper areas, the literal a_max of
	// equation (1).
	MaxMemberArea
)

func (r SharedAreaRule) String() string {
	switch r {
	case MergedRequirements:
		return "merged-requirements"
	case MaxMemberArea:
		return "max-member-area"
	}
	return fmt.Sprintf("SharedAreaRule(%d)", int(r))
}
