package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
)

// cloneTestDesigns returns the paper design, every registry design, and
// Small and Medium generated designs from several seeds.
func cloneTestDesigns(t testing.TB) map[string]*core.Design {
	t.Helper()
	designs := map[string]*core.Design{
		"paper": {Name: "p93791m", Digital: itc02.P93791(), Analog: analog.PaperCores()},
	}
	for _, e := range registry.Entries() {
		d, err := registry.Lookup(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		designs[e.Name] = d
	}
	for _, class := range []socgen.Class{socgen.Small, socgen.Medium} {
		for seed := int64(1); seed <= 4; seed++ {
			d, err := socgen.Generate(socgen.Options{Seed: seed, Class: class})
			if err != nil {
				t.Fatal(err)
			}
			designs[fmt.Sprintf("%s-%d", class, seed)] = d
		}
	}
	return designs
}

// checkCloneBytes fails unless clone marshals and hashes exactly as d.
func checkCloneBytes(t testing.TB, d, clone *core.Design) {
	t.Helper()
	want, err := core.MarshalDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.MarshalDesign(clone)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("clone marshals differently:\n%s\nvs\n%s", got, want)
	}
	for _, hash := range []func(*core.Design) (string, error){core.DesignHash, core.DigitalHash} {
		hw, err := hash(d)
		if err != nil {
			t.Fatal(err)
		}
		hg, err := hash(clone)
		if err != nil {
			t.Fatal(err)
		}
		if hg != hw {
			t.Fatalf("clone hashes to %s, original to %s", hg, hw)
		}
	}
}

// TestCloneDesignMatchesCodec pins CloneDesign to the codec: a clone
// marshals to the original's bytes and hashes, and it shares no slice
// with the original — mutating any of the clone's scan chains, digital
// tests or analog tests leaves the original's bytes and hash unchanged.
func TestCloneDesignMatchesCodec(t *testing.T) {
	// Each mutation returns how many elements it changed.
	mutations := map[string]func(*core.Design) int{
		"scan": func(c *core.Design) (n int) {
			for _, m := range c.Digital.Modules {
				for i := range m.Scan {
					m.Scan[i]++
					n++
				}
			}
			return n
		},
		"tests": func(c *core.Design) (n int) {
			for _, m := range c.Digital.Modules {
				for i := range m.Tests {
					m.Tests[i].Patterns++
					n++
				}
			}
			return n
		},
		"analog tests": func(c *core.Design) (n int) {
			for _, a := range c.Analog {
				for i := range a.Tests {
					a.Tests[i].Cycles++
					n++
				}
			}
			return n
		},
	}
	for name, d := range cloneTestDesigns(t) {
		clone, err := core.CloneDesign(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkCloneBytes(t, d, clone)
		want, _ := core.MarshalDesign(d)
		hash, _ := core.DesignHash(d)
		for what, mutate := range mutations {
			clone, err := core.CloneDesign(d)
			if err != nil {
				t.Fatal(err)
			}
			if mutate(clone) == 0 {
				continue
			}
			if got, _ := core.MarshalDesign(d); !bytes.Equal(got, want) {
				t.Errorf("%s: mutating the clone's %s changed the original", name, what)
			}
			if got, _ := core.DesignHash(d); got != hash {
				t.Errorf("%s: mutating the clone's %s changed the original's hash", name, what)
			}
			if got, _ := core.DesignHash(clone); got == hash {
				t.Errorf("%s: mutating the clone's %s left its hash unchanged", name, what)
			}
		}
	}

	if _, err := core.CloneDesign(nil); err == nil {
		t.Error("CloneDesign(nil) succeeded")
	}
	if _, err := core.CloneDesign(&core.Design{Digital: &itc02.SOC{Modules: []*itc02.Module{nil}}}); err == nil {
		t.Error("CloneDesign of a nil module succeeded")
	}
	if _, err := core.CloneDesign(&core.Design{Analog: []*analog.Core{nil}}); err == nil {
		t.Error("CloneDesign of a nil analog core succeeded")
	}
	// As under the codec round trip, a nil Digital becomes an empty SOC.
	clone, err := core.CloneDesign(&core.Design{Name: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	if clone.Digital == nil || clone.Digital.Name != "" || len(clone.Digital.Modules) != 0 {
		t.Errorf("nil Digital cloned to %+v, want an empty SOC", clone.Digital)
	}
}

// FuzzCloneDesign: every design UnmarshalDesign accepts clones to its
// own bytes and hashes, and to those of its codec round trip, so the
// clone and the codec agree on every accepted design.
func FuzzCloneDesign(f *testing.F) {
	for _, d := range cloneTestDesigns(f) {
		data, err := core.MarshalDesign(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := core.UnmarshalDesign(data)
		if err != nil {
			return
		}
		clone, err := core.CloneDesign(d)
		if err != nil {
			t.Fatal(err)
		}
		checkCloneBytes(t, d, clone)
		canonical, err := core.MarshalDesign(d)
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.UnmarshalDesign(canonical)
		if err != nil {
			t.Fatal(err)
		}
		checkCloneBytes(t, back, clone)
	})
}
