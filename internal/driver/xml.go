package driver

import (
	"bytes"
	"fmt"
	"unsafe"

	"confvalley/internal/config"
)

// xmlDriver handles the generic hierarchical XML settings format used
// throughout the paper (Listing 1): elements form scopes, a Name (or Type)
// attribute names the scope instance, <Setting Key=... Value=...> elements
// define parameters, and any other attribute becomes a parameter of its
// element's scope. The tokenizer is xmlscan.go.
type xmlDriver struct{}

func init() { Register(xmlDriver{}) }

func (xmlDriver) Name() string { return "xml" }

func (d xmlDriver) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	return d.ParseOwned(bytes.Clone(data), sourceName)
}

// ParseOwned scans data in place: names and plain values of the returned
// instances are substrings of it.
func (xmlDriver) ParseOwned(data []byte, sourceName string) ([]*config.Instance, error) {
	p := xmlParse{sc: xmlScanner{s: borrow(data)}, source: sourceName}
	if err := p.run(); err != nil {
		return nil, fmt.Errorf("xml: %w", err)
	}
	return p.out.instances(), nil
}

// Reparse re-parses data against base, a document ParseOwned parsed into
// ins (Reparser).
func (xmlDriver) Reparse(base []byte, ins []*config.Instance, data []byte) ([]*config.Instance, bool) {
	return reparse(borrow(base), borrow(data), ins, xmlValueEnd)
}

// xmlValueEnd ends a changed value where attrValue's borrowed path would:
// at the quote that opened the value it replaces, reached over bytes that
// path passes. A reference, a '<', a carriage return, a control byte or a
// byte ≥ 0x80 — whatever the full parse would rewrite or refuse —
// declines, and so does the end of the document.
func xmlValueEnd(base, doc string, s, at int) (int, bool) {
	if s == 0 {
		return 0, false
	}
	quote := base[s-1]
	for i := at; i < len(doc); i++ {
		c := doc[i]
		switch {
		case xmlClass[c]&cValue == 0:
		case c == quote:
			return i, true
		case c != '"' && c != '\'':
			return 0, false
		}
	}
	return 0, false
}

// borrow is a document the caller hands over, as a string: sound because
// nothing writes to it again (OwnedDriver). Both owned drivers scan their
// document through it.
func borrow(data []byte) string {
	return unsafe.String(unsafe.SliceData(data), len(data))
}

// offsetIn returns where s starts in doc when s is a non-empty string
// borrowed from doc's bytes, and false for any other string: an empty one,
// which records no position, or one with bytes of its own.
func offsetIn(doc, s string) (int, bool) {
	if len(s) == 0 || len(s) > len(doc) {
		return 0, false
	}
	off := uintptr(unsafe.Pointer(unsafe.StringData(s))) - uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	if off > uintptr(len(doc)-len(s)) {
		return 0, false
	}
	return int(off), true
}

// xmlParse is the state of one Parse call.
type xmlParse struct {
	sc     xmlScanner
	source string

	// stack is the scope path of the open scope elements; scopes[i] is the
	// ordinal scope in which the children of stack[i] are numbered.
	stack  []config.Seg
	scopes []int
	ords   ordinals

	out slabs
}

func (p *xmlParse) run() error {
	// The document root is a container, not a configuration scope: the
	// paper parses Listing 1's MonitorNodeHealth into
	// CloudGroup.Cloud.MonitorNodeHealth with no root segment. A root
	// element carrying attributes is a real scope and is kept.
	sawRoot := false
	for {
		ev, name, err := p.sc.next()
		if err != nil {
			return err
		}
		switch ev {
		case xmlEOF:
			return nil
		case xmlEnd:
			if n := len(p.stack); n > 0 {
				p.stack, p.scopes = p.stack[:n-1], p.scopes[:n-1]
			}
			continue
		}
		attrs := p.sc.attrs
		if !sawRoot {
			sawRoot = true
			if len(attrs) == 0 && name != "Setting" {
				continue
			}
		}
		if name == "Setting" {
			// Parameter element: <Setting Key="K" Value="V"/>
			var key, val string
			for _, a := range attrs {
				switch a.name {
				case "Key":
					key = a.value
				case "Value":
					val = a.value
				}
			}
			if key == "" {
				return fmt.Errorf("Setting element without Key attribute in %s", p.source)
			}
			p.emit(key, val)
			// Whatever a Setting encloses is not configuration, but it
			// must still be well formed.
			for depth := 1; depth > 0; {
				ev, _, err := p.sc.next()
				switch {
				case err != nil:
					return err
				case ev == xmlStart:
					depth++
				case ev == xmlEnd:
					depth--
				default:
					return fmt.Errorf("unbalanced elements in %s", p.source)
				}
			}
			continue
		}
		// Scope element. The first non-empty Name or Type attribute names
		// the instance; the remaining attributes are its parameters.
		seg := config.Seg{Name: name, Index: p.ords.next(p.scope(), name)}
		for _, a := range attrs {
			if seg.Inst == "" && (a.name == "Name" || a.name == "Type") {
				seg.Inst = a.value
			}
		}
		p.stack, p.scopes = append(p.stack, seg), append(p.scopes, p.ords.open())
		naming := true // still inside the run of attributes that could name the instance
		for _, a := range attrs {
			if naming && (a.name == "Name" || a.name == "Type") {
				naming = a.value == ""
				continue
			}
			p.emit(a.name, a.value)
		}
	}
}

// scope is the ordinal scope of the innermost open scope element; the
// top level (and an attribute-less root's children) is scope 0, which
// persists across top-level elements.
func (p *xmlParse) scope() int {
	if n := len(p.scopes); n > 0 {
		return p.scopes[n-1]
	}
	return 0
}

// emit appends the instance <scope path>.leaf = value.
func (p *xmlParse) emit(leaf, value string) {
	segs := p.out.key(len(p.stack) + 1)
	copy(segs, p.stack)
	segs[len(p.stack)] = config.Seg{Name: leaf}
	p.out.add(config.Instance{Key: config.Key{Segs: segs}, Value: value, Source: p.source})
}
