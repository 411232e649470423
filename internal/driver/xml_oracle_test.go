package driver

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"

	"confvalley/internal/config"
)

// xmlOracle is the XML driver as it was before the hand-rolled scanner:
// a strict encoding/xml token loop, kept here, outside the binary, as the
// reference FuzzXML and the driver tests compare the scanner against. It
// shares one thing with the driver — the ordinals rule, because numbering
// siblings per rendered parent key was a bug in both — but not its
// counter: the oracle keeps the one map per parse the driver used before
// its per-depth frames (keyedOrdinals).
type xmlOracle struct{}

func (xmlOracle) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var out []*config.Instance
	var stack []config.Seg
	var scopes []int
	var ords keyedOrdinals
	// The document root is a container, not a configuration scope: the
	// paper parses Listing 1's MonitorNodeHealth into
	// CloudGroup.Cloud.MonitorNodeHealth with no root segment. A root
	// element carrying attributes is a real scope and is kept.
	sawRoot := false

	scope := func() int {
		if len(scopes) == 0 {
			return 0
		}
		return scopes[len(scopes)-1]
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xml: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name := t.Name.Local
			if !sawRoot {
				sawRoot = true
				if len(t.Attr) == 0 && name != "Setting" {
					// Attribute-less document root: container only.
					continue
				}
			}
			if name == "Setting" {
				// Parameter element: <Setting Key="K" Value="V"/>
				var key, val string
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "Key":
						key = a.Value
					case "Value":
						val = a.Value
					}
				}
				if key == "" {
					return nil, fmt.Errorf("xml: Setting element without Key attribute in %s", sourceName)
				}
				k := config.Key{Segs: append(append([]config.Seg{}, stack...), config.Seg{Name: key})}
				out = append(out, &config.Instance{Key: k, Value: val, Source: sourceName})
				if err := dec.Skip(); err != nil {
					return nil, fmt.Errorf("xml: %w", err)
				}
				continue
			}
			// Scope element. Name or Type attribute names the instance.
			seg := config.Seg{Name: name}
			var attrs []xml.Attr
			for _, a := range t.Attr {
				switch a.Name.Local {
				case "Name", "Type":
					if seg.Inst == "" {
						seg.Inst = a.Value
						continue
					}
				}
				attrs = append(attrs, a)
			}
			seg.Index = ords.next(scope(), name)
			stack = append(stack, seg)
			scopes = append(scopes, ords.open())
			// Remaining attributes are parameters of the new scope.
			for _, a := range attrs {
				k := config.Key{Segs: append(append([]config.Seg{}, stack...), config.Seg{Name: a.Name.Local})}
				out = append(out, &config.Instance{Key: k, Value: a.Value, Source: sourceName})
			}
		case xml.EndElement:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
				scopes = scopes[:len(scopes)-1]
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xml: unbalanced elements in %s", sourceName)
	}
	return out, nil
}

// keyedOrdinals is the driver's sibling counter as it was before ordinal
// frames, kept verbatim but for its name: every (scope, name) pair of the
// document in one map.
//
// ordinals assigns 1-based sibling ordinals per open element: each scope
// element opens a scope of its own in which its children are counted by
// name, so two parents never share a counter however their keys render.
// One map for all scopes keeps a parent with n distinct child names
// linear in n.
type keyedOrdinals struct {
	counts map[ordinalKey]int
	scopes int
}

type ordinalKey struct {
	scope int
	name  string
}

// open returns a fresh scope; scope 0 is the top level and needs no open.
func (o *keyedOrdinals) open() int {
	o.scopes++
	return o.scopes
}

// next returns the ordinal of the next child called name in scope.
func (o *keyedOrdinals) next(scope int, name string) int {
	if o.counts == nil {
		o.counts = make(map[ordinalKey]int)
	}
	k := ordinalKey{scope, name}
	o.counts[k]++
	return o.counts[k]
}
