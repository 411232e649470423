package main

import (
	"bytes"
	"encoding/xml"
	"sort"

	"confvalley/internal/config"
)

// renderXML serialises instances as the nested settings XML the xml
// driver reads back into the same classes: one element per key segment,
// the instance name in a Name attribute, and a <Setting Key Value/>
// leaf per instance. azuregen.RenderXML is not used because its flat
// <Scope Name="Cluster::c.ACS"> form parses back under the class
// "Scope", which no specification names, so a suite run over it checks
// nothing (see README.md, follow-ups).
//
// The driver numbers same-named siblings in document order, so they are
// written in ordinal order whatever order the instances arrive in; name
// groups keep the order of first appearance. A leaf segment's instance
// name and ordinal cannot be expressed by a Setting and are dropped.
func renderXML(ins []*config.Instance) []byte {
	root := &xmlNode{}
	for _, in := range ins {
		n := root
		segs := in.Key.Segs
		for _, seg := range segs[:len(segs)-1] {
			n = n.child(seg)
		}
		n.settings = append(n.settings, [2]string{in.Key.Leaf(), in.Value})
	}
	var b bytes.Buffer
	b.WriteString("<Configuration>\n")
	root.write(&b, 1)
	b.WriteString("</Configuration>\n")
	return b.Bytes()
}

type xmlNode struct {
	seg      config.Seg
	settings [][2]string
	names    []string // child element names, first appearance first
	byName   map[string][]*xmlNode
	bySeg    map[config.Seg]*xmlNode
}

func (n *xmlNode) child(seg config.Seg) *xmlNode {
	if c := n.bySeg[seg]; c != nil {
		return c
	}
	if n.bySeg == nil {
		n.bySeg = make(map[config.Seg]*xmlNode)
		n.byName = make(map[string][]*xmlNode)
	}
	c := &xmlNode{seg: seg}
	n.bySeg[seg] = c
	if _, seen := n.byName[seg.Name]; !seen {
		n.names = append(n.names, seg.Name)
	}
	n.byName[seg.Name] = append(n.byName[seg.Name], c)
	return c
}

func (n *xmlNode) write(b *bytes.Buffer, depth int) {
	indent := func() {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
	}
	for _, s := range n.settings {
		indent()
		b.WriteString(`<Setting Key="`)
		escape(b, s[0])
		b.WriteString(`" Value="`)
		escape(b, s[1])
		b.WriteString("\"/>\n")
	}
	for _, name := range n.names {
		sibs := n.byName[name]
		sort.SliceStable(sibs, func(i, j int) bool { return sibs[i].seg.Index < sibs[j].seg.Index })
		for _, c := range sibs {
			indent()
			b.WriteByte('<')
			b.WriteString(name)
			if c.seg.Inst != "" {
				b.WriteString(` Name="`)
				escape(b, c.seg.Inst)
				b.WriteByte('"')
			}
			b.WriteString(">\n")
			c.write(b, depth+1)
			indent()
			b.WriteString("</")
			b.WriteString(name)
			b.WriteString(">\n")
		}
	}
}

func escape(b *bytes.Buffer, s string) {
	// Writes to a bytes.Buffer cannot fail.
	_ = xml.EscapeText(b, []byte(s))
}
