package itc02

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseError describes a syntax or semantic error in a .soc stream,
// including the line on which it occurred.
type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("itc02: line %d: %s", e.line, e.msg)
}

// Parse reads a SOC description in the format documented in the package
// comment. The result is validated before being returned.
func Parse(r io.Reader) (*SOC, error) {
	p := &parser{scanner: bufio.NewScanner(r)}
	p.scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	soc, err := p.parse()
	if err != nil {
		return nil, err
	}
	if err := soc.Validate(); err != nil {
		return nil, err
	}
	return soc, nil
}

type parser struct {
	scanner *bufio.Scanner
	line    int
	// pushback of one tokenized line
	pushed []string
	hasPsh bool
}

func (p *parser) errf(format string, args ...any) error {
	return &parseError{line: p.line, msg: fmt.Sprintf(format, args...)}
}

// next returns the next non-empty tokenized line, or nil at EOF.
func (p *parser) next() ([]string, error) {
	if p.hasPsh {
		p.hasPsh = false
		return p.pushed, nil
	}
	for p.scanner.Scan() {
		p.line++
		line := p.scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		return fields, nil
	}
	if err := p.scanner.Err(); err != nil {
		return nil, err
	}
	return nil, nil
}

func (p *parser) unread(fields []string) {
	p.pushed = fields
	p.hasPsh = true
}

func (p *parser) parse() (*SOC, error) {
	soc := &SOC{}
	declared := -1
	for {
		fields, err := p.next()
		if err != nil {
			return nil, err
		}
		if fields == nil {
			break
		}
		switch fields[0] {
		case "SocName":
			if len(fields) != 2 {
				return nil, p.errf("SocName wants one argument, got %d", len(fields)-1)
			}
			if soc.Name != "" {
				return nil, p.errf("duplicate SocName")
			}
			soc.Name = fields[1]
		case "TotalModules":
			n, err := p.intArg(fields, "TotalModules")
			if err != nil {
				return nil, err
			}
			declared = n
		case "Module":
			id, err := p.intArg(fields, "Module")
			if err != nil {
				return nil, err
			}
			m, err := p.parseModule(id)
			if err != nil {
				return nil, err
			}
			soc.Modules = append(soc.Modules, m)
		default:
			return nil, p.errf("unexpected keyword %q at top level", fields[0])
		}
	}
	if soc.Name == "" {
		return nil, p.errf("missing SocName")
	}
	if declared >= 0 && declared != len(soc.Modules) {
		return nil, p.errf("TotalModules %d does not match %d Module blocks", declared, len(soc.Modules))
	}
	return soc, nil
}

func (p *parser) intArg(fields []string, kw string) (int, error) {
	if len(fields) != 2 {
		return 0, p.errf("%s wants one integer argument, got %d arguments", kw, len(fields)-1)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, p.errf("%s: %q is not an integer", kw, fields[1])
	}
	return n, nil
}

func (p *parser) parseModule(id int) (*Module, error) {
	m := &Module{ID: id, Level: 1}
	scanDeclared := -1
	testsDeclared := -1
	for {
		fields, err := p.next()
		if err != nil {
			return nil, err
		}
		if fields == nil {
			return nil, p.errf("unexpected EOF inside Module %d", id)
		}
		switch fields[0] {
		case "EndModule":
			if scanDeclared >= 0 && scanDeclared != len(m.Scan) {
				return nil, p.errf("module %d: ScanChains %d does not match %d ScanChainLengths", id, scanDeclared, len(m.Scan))
			}
			if testsDeclared >= 0 && testsDeclared != len(m.Tests) {
				return nil, p.errf("module %d: TotalTests %d does not match %d Test blocks", id, testsDeclared, len(m.Tests))
			}
			return m, nil
		case "Name":
			if len(fields) != 2 {
				return nil, p.errf("Name wants one argument")
			}
			m.Name = fields[1]
		case "Level":
			if m.Level, err = p.intArg(fields, "Level"); err != nil {
				return nil, err
			}
		case "Inputs":
			if m.Inputs, err = p.intArg(fields, "Inputs"); err != nil {
				return nil, err
			}
		case "Outputs":
			if m.Outputs, err = p.intArg(fields, "Outputs"); err != nil {
				return nil, err
			}
		case "Bidirs":
			if m.Bidirs, err = p.intArg(fields, "Bidirs"); err != nil {
				return nil, err
			}
		case "ScanChains":
			if scanDeclared, err = p.intArg(fields, "ScanChains"); err != nil {
				return nil, err
			}
		case "ScanChainLengths":
			for _, f := range fields[1:] {
				l, err := strconv.Atoi(f)
				if err != nil {
					return nil, p.errf("ScanChainLengths: %q is not an integer", f)
				}
				m.Scan = append(m.Scan, l)
			}
		case "TotalTests":
			if testsDeclared, err = p.intArg(fields, "TotalTests"); err != nil {
				return nil, err
			}
		case "Test":
			tid, err := p.intArg(fields, "Test")
			if err != nil {
				return nil, err
			}
			t, err := p.parseTest(tid)
			if err != nil {
				return nil, err
			}
			m.Tests = append(m.Tests, t)
		default:
			return nil, p.errf("unexpected keyword %q inside Module %d", fields[0], id)
		}
	}
}

func (p *parser) parseTest(id int) (Test, error) {
	t := Test{ID: id, ScanUse: true, TamUse: true}
	for {
		fields, err := p.next()
		if err != nil {
			return t, err
		}
		if fields == nil {
			return t, p.errf("unexpected EOF inside Test %d", id)
		}
		switch fields[0] {
		case "EndTest":
			return t, nil
		case "Patterns":
			if t.Patterns, err = p.intArg(fields, "Patterns"); err != nil {
				return t, err
			}
		case "ScanUse":
			b, err := p.boolArg(fields, "ScanUse")
			if err != nil {
				return t, err
			}
			t.ScanUse = b
		case "TamUse":
			b, err := p.boolArg(fields, "TamUse")
			if err != nil {
				return t, err
			}
			t.TamUse = b
		default:
			return t, p.errf("unexpected keyword %q inside Test %d", fields[0], id)
		}
	}
}

func (p *parser) boolArg(fields []string, kw string) (bool, error) {
	n, err := p.intArg(fields, kw)
	if err != nil {
		return false, err
	}
	switch n {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, p.errf("%s wants 0 or 1, got %d", kw, n)
}
