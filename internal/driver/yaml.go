package driver

import (
	"fmt"
	"strings"

	"confvalley/internal/config"
)

// yamlDriver handles the YAML subset that configuration files actually
// use: nested mappings by two-space indentation, "key: value" scalars, and
// block sequences of mappings ("- key: value"). Anchors, flow style, and
// multi-line scalars are not supported; configuration data in the wild
// (OpenStack, Kubernetes-style service configs) rarely needs them, and a
// driver is meant to stay small (Table 2).
type yamlDriver struct{}

func init() { Register(yamlDriver{}) }

func (yamlDriver) Name() string { return "yaml" }

type yamlLine struct {
	indent int
	isItem bool // starts with "- "
	key    string
	val    string
	num    int
}

func (yamlDriver) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	var lines []yamlLine
	for ln, raw := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimRight(raw, " \t")
		if trimmed == "" {
			continue
		}
		body := strings.TrimLeft(trimmed, " ")
		if strings.HasPrefix(body, "#") || body == "---" {
			continue
		}
		indent := len(trimmed) - len(body)
		l := yamlLine{indent: indent, num: ln + 1}
		if strings.HasPrefix(body, "- ") {
			l.isItem = true
			body = body[2:]
			l.indent += 2 // the item's keys align after the dash
		} else if body == "-" {
			return nil, fmt.Errorf("yaml: %s:%d: bare sequence items not supported", sourceName, ln+1)
		}
		colon := strings.Index(body, ":")
		if colon < 0 {
			return nil, fmt.Errorf("yaml: %s:%d: expected key: value, got %q", sourceName, ln+1, body)
		}
		l.key = strings.TrimSpace(body[:colon])
		l.val = strings.TrimSpace(body[colon+1:])
		l.val = strings.Trim(l.val, `"'`)
		if l.key == "" {
			return nil, fmt.Errorf("yaml: %s:%d: empty key", sourceName, ln+1)
		}
		if err := config.CheckName(l.key); err != nil {
			return nil, fmt.Errorf("yaml: %s:%d: %w", sourceName, ln+1, err)
		}
		lines = append(lines, l)
	}

	var out []*config.Instance
	// stack of (indent, segment) for the current scope path.
	type level struct {
		indent int
		seg    config.Seg
	}
	var stack []level
	ix := newIndexer()
	parentKeyAt := func(n int) string {
		segs := make([]config.Seg, n)
		for i := 0; i < n; i++ {
			segs[i] = stack[i].seg
		}
		return config.Key{Segs: segs}.String()
	}
	for i, l := range lines {
		// Pop scopes deeper or equal to this line's indent.
		for len(stack) > 0 && stack[len(stack)-1].indent >= l.indent {
			stack = stack[:len(stack)-1]
		}
		if l.isItem {
			// A new sequence element: the key under which the sequence
			// lives is the enclosing mapping key, which is on the stack
			// (pushed when we saw "key:" with no value). We model each
			// element as a new indexed instance of that scope.
			if len(stack) == 0 {
				return nil, fmt.Errorf("yaml: %s:%d: sequence item outside a mapping", sourceName, l.num)
			}
			top := stack[len(stack)-1]
			// Replace the top with a fresh indexed instance.
			name := top.seg.Name
			idx := ix.next(parentKeyAt(len(stack)-1)+"\x01item", name)
			stack[len(stack)-1] = level{indent: top.indent, seg: config.Seg{Name: name, Index: idx}}
		}
		if l.val == "" && nextDeeper(lines, i, l.indent) {
			// Mapping or sequence introducer.
			seg := config.Seg{Name: l.key}
			if !followsItem(lines, i) {
				seg.Index = ix.next(parentKeyAt(len(stack)), l.key)
			}
			stack = append(stack, level{indent: l.indent, seg: seg})
			continue
		}
		segs := make([]config.Seg, 0, len(stack)+1)
		for _, lv := range stack {
			segs = append(segs, lv.seg)
		}
		if l.key == "name" || l.key == "Name" {
			// Names its enclosing scope instance.
			if len(segs) > 0 {
				// Rewrite the instance name on the innermost scope; the
				// stack entry is updated so siblings inherit it.
				stack[len(stack)-1].seg.Inst = l.val
				continue
			}
		}
		segs = append(segs, config.Seg{Name: l.key})
		out = append(out, &config.Instance{
			Key:    config.Key{Segs: segs},
			Value:  l.val,
			Source: sourceName,
			Line:   l.num,
		})
	}
	return out, nil
}

// nextDeeper reports whether the line after i is indented deeper than ind,
// i.e. line i introduces a nested block.
func nextDeeper(lines []yamlLine, i, ind int) bool {
	if i+1 >= len(lines) {
		return false
	}
	return lines[i+1].indent > ind || (lines[i+1].isItem && lines[i+1].indent >= ind)
}

// followsItem reports whether line i is itself a sequence item line.
func followsItem(lines []yamlLine, i int) bool {
	return lines[i].isItem
}
