package azuregen

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"confvalley/internal/config"
	"confvalley/internal/vtype"
)

// BranchSetup describes how many errors of each class to inject into one
// configuration branch.
type BranchSetup struct {
	Name         string
	ExpertErrors int // relational errors only expert specs catch (Table 6)
	TrueInferred int // real errors inferred specs catch (Table 7 true positives)
	BenignDrifts int // legitimate new values that trip inferred specs (Table 7 FPs)
}

// PaperBranches reproduces the §6.4 experiment: three branches whose
// injected error counts match Table 6 (4/2/2 expert-confirmed errors) and
// Table 7 (12/15/16 reported with 3/5/3 false positives).
var PaperBranches = []BranchSetup{
	{Name: "Trunk", ExpertErrors: 4, TrueInferred: 9, BenignDrifts: 3},
	{Name: "Branch 1", ExpertErrors: 2, TrueInferred: 10, BenignDrifts: 5},
	{Name: "Branch 2", ExpertErrors: 2, TrueInferred: 13, BenignDrifts: 3},
}

// GenerateBranches builds the good snapshot (Type A corpus plus expert
// substrate) and the requested branches, each an identical regeneration
// with its errors injected. The good snapshot is what inference learns
// from; the branches are "the latest configuration data to be deployed".
func GenerateBranches(scale float64, seed int64, setups []BranchSetup) (good *Corpus, branches []Branch) {
	build := func() *Corpus {
		c := GenerateA(scale, seed)
		AddExpertSubstrate(c.Store, expertClusters(scale), seed+1)
		return c
	}
	good = build()
	for bi, setup := range setups {
		c := build()
		var inj []Injection
		inj = append(inj, InjectExpertErrors(c.Store, expertClusters(scale), setup.ExpertErrors, seed+int64(100+bi))...)
		inj = append(inj, InjectInferredErrors(c, setup.TrueInferred, setup.BenignDrifts, seed+int64(200+bi))...)
		branches = append(branches, Branch{Name: setup.Name, Store: c.Store, Injected: inj})
	}
	return good, branches
}

func expertClusters(scale float64) int {
	n := int(40 * scale)
	if n < 8 {
		n = 8
	}
	if n > 40 {
		n = 40
	}
	return n
}

// InjectInferredErrors corrupts nTrue instances with real configuration
// errors (empty required values, out-of-range numbers, wrong types,
// inconsistencies, duplicates) and nBenign instances with legitimate
// drift that inaccurate inferred specifications flag (§6.4's false
// positives: incomplete inferred ranges and scalar-vs-list types).
// Each injection hits a distinct class so reported error keys are
// distinct.
func InjectInferredErrors(c *Corpus, nTrue, nBenign int, seed int64) []Injection {
	r := rand.New(rand.NewSource(seed))
	byArch := make(map[string][]string)
	for class, arch := range c.Archetypes {
		byArch[arch] = append(byArch[arch], class)
	}
	for _, classes := range byArch {
		sort.Strings(classes)
	}
	used := make(map[string]bool)
	pick := func(arch string) (string, bool) {
		classes := byArch[arch]
		start := 0
		if len(classes) > 0 {
			start = r.Intn(len(classes))
		}
		for i := 0; i < len(classes); i++ {
			class := classes[(start+i)%len(classes)]
			if !used[class] {
				used[class] = true
				return class, true
			}
		}
		return "", false
	}

	var out []Injection
	trueKinds := []struct {
		arch, kind, desc string
		newVal           func(vals []string) string
	}{
		{"intRange", "inferred:empty", "required value left empty (cf. empty FccDnsName)",
			func([]string) string { return "" }},
		{"intRange", "inferred:low-range", "value far below the learned range (cf. low ReplicaCountForCreateFCC)",
			func(vals []string) string { return fmt.Sprintf("%d", intMin(vals)-50) }},
		{"intConst", "inferred:type", "non-numeric value for an integer parameter",
			func([]string) string { return "not-a-number" }},
		{"boolConst", "inferred:inconsistent", "flag flipped against the fleet-wide constant",
			func(vals []string) string {
				if strings.EqualFold(vals[0], "true") {
					return "False"
				}
				return "True"
			}},
		{"ipUnique", "inferred:duplicate", "address duplicates another instance's",
			func(vals []string) string { return vals[0] }},
	}
	for e := 0; e < nTrue; e++ {
		tk := trueKinds[e%len(trueKinds)]
		class, ok := pick(tk.arch)
		if !ok {
			continue
		}
		ins := c.Store.ClassInstances(class)
		vals := make([]string, len(ins))
		for i, in := range ins {
			vals[i] = in.Value
		}
		// Mutate the last instance so "duplicate" can copy the first.
		target := ins[len(ins)-1]
		inj := Injection{Key: target.Key.String(), OldValue: target.Value,
			NewValue: tk.newVal(vals), Kind: tk.kind, TrueError: true, Description: tk.desc}
		target.Value = inj.NewValue
		out = append(out, inj)
	}

	benignKinds := []struct {
		arch, kind, desc string
		newVal           func(vals []string) string
	}{
		{"intRange", "benign:range-drift", "legitimate new value just above the observed range",
			func(vals []string) string { return fmt.Sprintf("%d", intMax(vals)+2) }},
		{"ipUnique", "benign:list-vs-scalar", "true type is a list of IP addresses; samples were single IPs",
			func(vals []string) string {
				return vals[0][:strings.LastIndex(vals[0], ".")] + ".251," + vals[0][:strings.LastIndex(vals[0], ".")] + ".252"
			}},
		{"enumStr", "benign:new-member", "legitimate new enumeration member absent from samples",
			func([]string) string { return "hyperscale" }},
	}
	for e := 0; e < nBenign; e++ {
		bk := benignKinds[e%len(benignKinds)]
		class, ok := pick(bk.arch)
		if !ok {
			continue
		}
		ins := c.Store.ClassInstances(class)
		vals := make([]string, len(ins))
		for i, in := range ins {
			vals[i] = in.Value
		}
		target := ins[len(ins)-1]
		inj := Injection{Key: target.Key.String(), OldValue: target.Value,
			NewValue: bk.newVal(vals), Kind: bk.kind, TrueError: false, Description: bk.desc}
		target.Value = inj.NewValue
		out = append(out, inj)
	}
	c.Store.InvalidateCache()
	return out
}

func intMin(vals []string) int64 {
	first := true
	var min int64
	for _, v := range vals {
		n, ok := vtype.ParseInt(v)
		if !ok {
			continue
		}
		if first || n < min {
			min, first = n, false
		}
	}
	return min
}

func intMax(vals []string) int64 {
	first := true
	var max int64
	for _, v := range vals {
		n, ok := vtype.ParseInt(v)
		if !ok {
			continue
		}
		if first || n > max {
			max, first = n, false
		}
	}
	return max
}

// RenderKV serializes a store in the flat key-value format; the Table 9
// parsing benchmark feeds this back through the kv driver.
func RenderKV(st *config.Store) []byte {
	var b strings.Builder
	for _, in := range st.Instances() {
		b.WriteString(in.Key.String())
		b.WriteString(" = ")
		b.WriteString(in.Value)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// RenderINI serializes a store in INI format, one section per scope. Keys
// must be two-level (Scope.Param) or flat for faithful round-tripping.
func RenderINI(st *config.Store) []byte {
	var b strings.Builder
	bySection := make(map[string][]*config.Instance)
	var order []string
	for _, in := range st.Instances() {
		sec := ""
		if len(in.Key.Segs) > 1 {
			sec = in.Key.PrefixString(len(in.Key.Segs) - 1)
		}
		if _, ok := bySection[sec]; !ok {
			order = append(order, sec)
		}
		bySection[sec] = append(bySection[sec], in)
	}
	for _, sec := range order {
		if sec != "" {
			fmt.Fprintf(&b, "[%s]\n", sec)
		}
		for _, in := range bySection[sec] {
			fmt.Fprintf(&b, "%s = %s\n", in.Key.Leaf(), in.Value)
		}
	}
	return []byte(b.String())
}

// RenderXML serializes a store as the hierarchical XML settings format of
// Listing 1, in the nested form the xml driver reads back into the same
// classes: one element per key segment, the instance name in a Name
// attribute, and a <Setting Key Value/> leaf per instance. The driver
// numbers same-named siblings in document order, so they are written in
// ordinal order whatever order the store holds them in; name groups keep
// the order of first appearance. A Setting cannot carry its leaf
// segment's instance name or ordinal; they are dropped.
func RenderXML(st *config.Store) []byte {
	root := &xmlScope{}
	for _, in := range st.Instances() {
		sc := root
		segs := in.Key.Segs
		for _, seg := range segs[:len(segs)-1] {
			sc = sc.child(seg)
		}
		sc.settings = append(sc.settings, in)
	}
	var b bytes.Buffer
	b.WriteString("<Configuration>\n")
	root.render(&b, 1)
	b.WriteString("</Configuration>\n")
	return b.Bytes()
}

// xmlScope is one scope element of the document RenderXML builds.
type xmlScope struct {
	seg      config.Seg
	settings []*config.Instance
	names    []string // child element names, first appearance first
	byName   map[string][]*xmlScope
	bySeg    map[config.Seg]*xmlScope
}

func (sc *xmlScope) child(seg config.Seg) *xmlScope {
	if c := sc.bySeg[seg]; c != nil {
		return c
	}
	if sc.bySeg == nil {
		sc.bySeg = make(map[config.Seg]*xmlScope)
		sc.byName = make(map[string][]*xmlScope)
	}
	c := &xmlScope{seg: seg}
	sc.bySeg[seg] = c
	if _, seen := sc.byName[seg.Name]; !seen {
		sc.names = append(sc.names, seg.Name)
	}
	sc.byName[seg.Name] = append(sc.byName[seg.Name], c)
	return c
}

func (sc *xmlScope) render(b *bytes.Buffer, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, in := range sc.settings {
		b.WriteString(indent)
		b.WriteString(`<Setting Key="`)
		escapeXML(b, in.Key.Leaf())
		b.WriteString(`" Value="`)
		escapeXML(b, in.Value)
		b.WriteString("\"/>\n")
	}
	for _, name := range sc.names {
		sibs := sc.byName[name]
		sort.SliceStable(sibs, func(i, j int) bool { return sibs[i].seg.Index < sibs[j].seg.Index })
		for _, c := range sibs {
			b.WriteString(indent)
			b.WriteByte('<')
			b.WriteString(name)
			if c.seg.Inst != "" {
				b.WriteString(` Name="`)
				escapeXML(b, c.seg.Inst)
				b.WriteByte('"')
			}
			b.WriteString(">\n")
			c.render(b, depth+1)
			b.WriteString(indent)
			b.WriteString("</")
			b.WriteString(name)
			b.WriteString(">\n")
		}
	}
}

func escapeXML(b *bytes.Buffer, s string) {
	// Writes to a bytes.Buffer cannot fail.
	_ = xml.EscapeText(b, []byte(s))
}
