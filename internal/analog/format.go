package analog

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file defines a line-oriented text format for analog core test
// specifications, the analog counterpart of the digital .soc format in
// internal/itc02. '#' comments and blank lines are ignored:
//
//	AnalogCore A
//	  Kind I-Q transmit
//	  Test fc
//	    Band 50kHz 50kHz
//	    Fsample 1.5MHz
//	    Cycles 50000
//	    TamWidth 1
//	    Resolution 8
//	  EndTest
//	EndAnalogCore
//
// Frequencies accept Hz, kHz and MHz suffixes (case-insensitive) or the
// literal DC. A file may contain any number of cores.

// ParseCores reads analog core specifications. Every core is validated.
func ParseCores(r io.Reader) ([]*Core, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	p := &coreParser{sc: sc}
	cores, err := p.parse()
	if err != nil {
		return nil, err
	}
	for _, c := range cores {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	return cores, nil
}

// FormatCores renders cores in the package text format; the output
// parses back to equal cores.
func FormatCores(cores []*Core) string {
	var bw strings.Builder
	for i, c := range cores {
		if i > 0 {
			fmt.Fprintln(&bw)
		}
		fmt.Fprintf(&bw, "AnalogCore %s\n", c.Name)
		if c.Kind != "" {
			fmt.Fprintf(&bw, "  Kind %s\n", c.Kind)
		}
		for j := range c.Tests {
			t := &c.Tests[j]
			fmt.Fprintf(&bw, "  Test %s\n", t.Name)
			fmt.Fprintf(&bw, "    Band %s %s\n", formatHertz(t.FinLow), formatHertz(t.FinHigh))
			fmt.Fprintf(&bw, "    Fsample %s\n", formatHertz(t.Fsample))
			fmt.Fprintf(&bw, "    Cycles %d\n", t.Cycles)
			fmt.Fprintf(&bw, "    TamWidth %d\n", t.TAMWidth)
			fmt.Fprintf(&bw, "    Resolution %d\n", t.Resolution)
			fmt.Fprintf(&bw, "  EndTest\n")
		}
		fmt.Fprintf(&bw, "EndAnalogCore\n")
	}
	return bw.String()
}

// formatHertz renders a frequency losslessly for the format (plain Hz
// when the kHz/MHz rendering would round).
func formatHertz(f Hertz) string {
	if f == 0 {
		return "DC"
	}
	for _, u := range []struct {
		mult Hertz
		name string
	}{{MHz, "MHz"}, {KHz, "kHz"}} {
		v := float64(f / u.mult)
		if v >= 1 && v == float64(int64(v*1e6))/1e6 {
			return strconv.FormatFloat(v, 'g', -1, 64) + u.name
		}
	}
	return strconv.FormatFloat(float64(f), 'g', -1, 64) + "Hz"
}

// parseHertz parses "DC", "700Hz", "50kHz", "1.5MHz" (suffix
// case-insensitive; bare numbers are Hz).
func parseHertz(s string) (Hertz, error) {
	if strings.EqualFold(s, "DC") {
		return 0, nil
	}
	lower := strings.ToLower(s)
	mult := Hertz(1)
	num := lower
	switch {
	case strings.HasSuffix(lower, "mhz"):
		mult, num = MHz, lower[:len(lower)-3]
	case strings.HasSuffix(lower, "khz"):
		mult, num = KHz, lower[:len(lower)-3]
	case strings.HasSuffix(lower, "hz"):
		num = lower[:len(lower)-2]
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("analog: bad frequency %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("analog: negative frequency %q", s)
	}
	return Hertz(v) * mult, nil
}

type coreParser struct {
	sc   *bufio.Scanner
	line int
}

func (p *coreParser) errf(format string, args ...any) error {
	return fmt.Errorf("analog: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *coreParser) next() []string {
	for p.sc.Scan() {
		p.line++
		line := p.sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) > 0 {
			return fields
		}
	}
	return nil
}

func (p *coreParser) parse() ([]*Core, error) {
	var cores []*Core
	for {
		fields := p.next()
		if fields == nil {
			break
		}
		if fields[0] != "AnalogCore" || len(fields) != 2 {
			return nil, p.errf("expected 'AnalogCore <name>', got %q", strings.Join(fields, " "))
		}
		c, err := p.parseCore(fields[1])
		if err != nil {
			return nil, err
		}
		cores = append(cores, c)
	}
	if err := p.sc.Err(); err != nil {
		return nil, err
	}
	return cores, nil
}

func (p *coreParser) parseCore(name string) (*Core, error) {
	c := &Core{Name: name}
	for {
		fields := p.next()
		if fields == nil {
			return nil, p.errf("unexpected EOF inside AnalogCore %s", name)
		}
		switch fields[0] {
		case "EndAnalogCore":
			return c, nil
		case "Kind":
			if len(fields) < 2 {
				return nil, p.errf("Kind wants a value")
			}
			c.Kind = strings.Join(fields[1:], " ")
		case "Test":
			if len(fields) != 2 {
				return nil, p.errf("Test wants one name")
			}
			t, err := p.parseTest(fields[1])
			if err != nil {
				return nil, err
			}
			c.Tests = append(c.Tests, t)
		default:
			return nil, p.errf("unexpected keyword %q inside AnalogCore %s", fields[0], name)
		}
	}
}

func (p *coreParser) parseTest(name string) (Test, error) {
	t := Test{Name: name, Resolution: 8}
	for {
		fields := p.next()
		if fields == nil {
			return t, p.errf("unexpected EOF inside Test %s", name)
		}
		switch fields[0] {
		case "EndTest":
			return t, nil
		case "Band":
			if len(fields) != 3 {
				return t, p.errf("Band wants two frequencies")
			}
			lo, err := parseHertz(fields[1])
			if err != nil {
				return t, p.errf("%v", err)
			}
			hi, err := parseHertz(fields[2])
			if err != nil {
				return t, p.errf("%v", err)
			}
			t.FinLow, t.FinHigh = lo, hi
		case "Fsample":
			if len(fields) != 2 {
				return t, p.errf("Fsample wants one frequency")
			}
			fs, err := parseHertz(fields[1])
			if err != nil {
				return t, p.errf("%v", err)
			}
			t.Fsample = fs
		case "Cycles":
			n, err := p.intField(fields, "Cycles")
			if err != nil {
				return t, err
			}
			t.Cycles = int64(n)
		case "TamWidth":
			n, err := p.intField(fields, "TamWidth")
			if err != nil {
				return t, err
			}
			t.TAMWidth = n
		case "Resolution":
			n, err := p.intField(fields, "Resolution")
			if err != nil {
				return t, err
			}
			t.Resolution = n
		default:
			return t, p.errf("unexpected keyword %q inside Test %s", fields[0], name)
		}
	}
}

func (p *coreParser) intField(fields []string, kw string) (int, error) {
	if len(fields) != 2 {
		return 0, p.errf("%s wants one integer", kw)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, p.errf("%s: %q is not an integer", kw, fields[1])
	}
	return n, nil
}
