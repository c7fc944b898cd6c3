package core

// The canonical JSON codec for Design and the content hash built on it.
// Both exist for the serving layer: an Engine keys its per-design cache
// sessions by DesignHash, so two requests carrying the same SOC — even
// as separately allocated (or separately parsed) values — land on the
// same staircase and schedule caches, and the HTTP API accepts inline
// designs in exactly the MarshalDesign format. The codec round-trips
// losslessly: Hertz frequencies are float64s and Go prints a float64 in
// the shortest decimal form that parses back to the same bits.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mixsoc/internal/analog"
	"mixsoc/internal/itc02"
)

// designJSON mirrors Design for the canonical codec. Field order is
// part of the canonical form (encoding/json emits struct fields in
// declaration order), so changing this struct changes every DesignHash.
type designJSON struct {
	Name    string           `json:"name,omitempty"`
	Digital socJSON          `json:"digital"`
	Analog  []analogCoreJSON `json:"analog,omitempty"`
}

type socJSON struct {
	Name    string       `json:"name"`
	Modules []moduleJSON `json:"modules"`
}

type moduleJSON struct {
	ID      int        `json:"id"`
	Name    string     `json:"name,omitempty"`
	Level   int        `json:"level"`
	Inputs  int        `json:"inputs"`
	Outputs int        `json:"outputs"`
	Bidirs  int        `json:"bidirs"`
	Scan    []int      `json:"scan,omitempty"`
	Tests   []testJSON `json:"tests,omitempty"`
}

type testJSON struct {
	ID       int  `json:"id"`
	Patterns int  `json:"patterns"`
	ScanUse  bool `json:"scan_use"`
	TamUse   bool `json:"tam_use"`
}

type analogCoreJSON struct {
	Name  string           `json:"name"`
	Kind  string           `json:"kind,omitempty"`
	Tests []analogTestJSON `json:"tests"`
}

type analogTestJSON struct {
	Name       string  `json:"name"`
	FinLow     float64 `json:"fin_low"`
	FinHigh    float64 `json:"fin_high"`
	Fsample    float64 `json:"fsample"`
	Cycles     int64   `json:"cycles"`
	TAMWidth   int     `json:"tam_width"`
	Resolution int     `json:"resolution"`
}

func toModuleJSON(m *itc02.Module) moduleJSON {
	mj := moduleJSON{
		ID:      m.ID,
		Name:    m.Name,
		Level:   m.Level,
		Inputs:  m.Inputs,
		Outputs: m.Outputs,
		Bidirs:  m.Bidirs,
		Scan:    m.Scan,
	}
	for _, t := range m.Tests {
		mj.Tests = append(mj.Tests, testJSON{ID: t.ID, Patterns: t.Patterns, ScanUse: t.ScanUse, TamUse: t.TamUse})
	}
	return mj
}

func toDesignJSON(d *Design) designJSON {
	out := designJSON{Name: d.Name}
	if d.Digital != nil {
		out.Digital.Name = d.Digital.Name
		out.Digital.Modules = make([]moduleJSON, len(d.Digital.Modules))
		for i, m := range d.Digital.Modules {
			out.Digital.Modules[i] = toModuleJSON(m)
		}
	}
	for _, c := range d.Analog {
		cj := analogCoreJSON{Name: c.Name, Kind: c.Kind}
		for _, t := range c.Tests {
			cj.Tests = append(cj.Tests, analogTestJSON{
				Name:       t.Name,
				FinLow:     float64(t.FinLow),
				FinHigh:    float64(t.FinHigh),
				Fsample:    float64(t.Fsample),
				Cycles:     t.Cycles,
				TAMWidth:   t.TAMWidth,
				Resolution: t.Resolution,
			})
		}
		out.Analog = append(out.Analog, cj)
	}
	return out
}

func fromDesignJSON(dj designJSON) *Design {
	d := &Design{Name: dj.Name, Digital: &itc02.SOC{Name: dj.Digital.Name}}
	for _, mj := range dj.Digital.Modules {
		m := &itc02.Module{
			ID:      mj.ID,
			Name:    mj.Name,
			Level:   mj.Level,
			Inputs:  mj.Inputs,
			Outputs: mj.Outputs,
			Bidirs:  mj.Bidirs,
			Scan:    mj.Scan,
		}
		for _, tj := range mj.Tests {
			m.Tests = append(m.Tests, itc02.Test{ID: tj.ID, Patterns: tj.Patterns, ScanUse: tj.ScanUse, TamUse: tj.TamUse})
		}
		d.Digital.Modules = append(d.Digital.Modules, m)
	}
	for _, cj := range dj.Analog {
		c := &analog.Core{Name: cj.Name, Kind: cj.Kind}
		for _, tj := range cj.Tests {
			c.Tests = append(c.Tests, analog.Test{
				Name:       tj.Name,
				FinLow:     analog.Hertz(tj.FinLow),
				FinHigh:    analog.Hertz(tj.FinHigh),
				Fsample:    analog.Hertz(tj.Fsample),
				Cycles:     tj.Cycles,
				TAMWidth:   tj.TAMWidth,
				Resolution: tj.Resolution,
			})
		}
		d.Analog = append(d.Analog, c)
	}
	return d
}

// MarshalDesign renders the design in its canonical JSON form, the
// wire format the HTTP planning service accepts for inline designs.
// The encoding is lossless: UnmarshalDesign(MarshalDesign(d)) plans
// bit-identically to d.
func MarshalDesign(d *Design) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("core: cannot marshal a nil design")
	}
	return json.Marshal(toDesignJSON(d))
}

// UnmarshalDesign parses a design from its canonical JSON form and
// validates it.
func UnmarshalDesign(data []byte) (*Design, error) {
	var dj designJSON
	if err := json.Unmarshal(data, &dj); err != nil {
		return nil, fmt.Errorf("core: bad design JSON: %w", err)
	}
	d := fromDesignJSON(dj)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// CloneDesign deep-copies a design field by field, so the copy shares
// no pointer or backing array with the original. The Engine clones
// every design it admits: its cache sessions must not alias
// caller-owned modules a caller could mutate mid-flight. The copy
// marshals to the original's MarshalDesign bytes, and, as a codec round
// trip would, it turns a nil Digital into an empty SOC.
func CloneDesign(d *Design) (*Design, error) {
	if d == nil {
		return nil, fmt.Errorf("core: cannot clone a nil design")
	}
	out := &Design{Name: d.Name, Digital: &itc02.SOC{}}
	if soc := d.Digital; soc != nil {
		out.Digital.Name = soc.Name
		mods := make([]itc02.Module, len(soc.Modules))
		out.Digital.Modules = make([]*itc02.Module, len(mods))
		for i, m := range soc.Modules {
			if m == nil {
				return nil, fmt.Errorf("core: cannot clone a nil module")
			}
			mods[i] = *m
			mods[i].Scan = append([]int(nil), m.Scan...)
			mods[i].Tests = append([]itc02.Test(nil), m.Tests...)
			out.Digital.Modules[i] = &mods[i]
		}
	}
	cores := make([]analog.Core, len(d.Analog))
	out.Analog = make([]*analog.Core, len(cores))
	for i, c := range d.Analog {
		if c == nil {
			return nil, fmt.Errorf("core: cannot clone a nil analog core")
		}
		cores[i] = *c
		cores[i].Tests = append([]analog.Test(nil), c.Tests...)
		out.Analog[i] = &cores[i]
	}
	return out, nil
}

// DesignHash returns the design's content hash: the hex SHA-256 of the
// canonical JSON of its digital modules and analog cores. The display
// name is excluded, so two identical SOCs registered under different
// names share one Engine cache session; any change to a module, scan
// chain, test, or analog core changes the hash.
func DesignHash(d *Design) (string, error) {
	if d == nil {
		return "", fmt.Errorf("core: cannot hash a nil design")
	}
	dj := toDesignJSON(d)
	dj.Name = ""
	data, err := json.Marshal(dj)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ModuleHash returns a digital module's content hash: the hex SHA-256
// of its canonical JSON with the ID and display name zeroed. A wrapper
// staircase depends only on the module's pins, scan chains and tests —
// exactly what survives the zeroing — so two modules with equal hashes
// have bit-identical staircases at every width, which is what lets the
// Engine share staircase work across near-duplicate designs (see
// wrapper.ModuleStairStore).
func ModuleHash(m *itc02.Module) (string, error) {
	if m == nil {
		return "", fmt.Errorf("core: cannot hash a nil module")
	}
	mj := toModuleJSON(m)
	mj.ID = 0
	mj.Name = ""
	data, err := json.Marshal(mj)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// DigitalHash returns the content hash of the design's digital SOC: the
// hex SHA-256 of its canonical JSON with only the SOC display name
// excluded. Module IDs and names stay in — TAM job IDs derive from
// them — so two designs with equal digital hashes build bit-identical
// digital job slices at every width, the property the Engine's
// cross-design digital-jobs cache keys on (see DigitalJobsCache).
func DigitalHash(d *Design) (string, error) {
	if d == nil || d.Digital == nil {
		return "", fmt.Errorf("core: cannot hash a nil digital SOC")
	}
	dj := toDesignJSON(d)
	dj.Digital.Name = ""
	data, err := json.Marshal(dj.Digital)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
