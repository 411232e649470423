// Package azuregen generates synthetic configuration corpora with the
// statistical shape of the three Microsoft Azure configuration data sets
// the paper evaluates on (§6, Tables 5–9):
//
//	Type A — 1,391 classes, 67,231 instances: component settings
//	         replicated across clusters, rich value-type mix.
//	Type B — 162 classes, 2,306,935 instances: per-node settings with a
//	         ~14,000:1 instance-to-class ratio.
//	Type C — 95 classes, 2,253 instances: small INI-style service
//	         settings, mostly typed and consistent.
//
// The real corpora are Microsoft-internal; these generators reproduce the
// properties the ConfValley pipeline actually depends on — class/instance
// counts, scope hierarchy, value-type distribution, replication and
// customization — as documented in DESIGN.md. Generation is fully
// deterministic for a given seed.
package azuregen

import (
	"fmt"
	"math/rand"

	"confvalley/internal/config"
)

// CorpusType selects one of the paper's three data sets.
type CorpusType int

// The three corpus types.
const (
	TypeA CorpusType = iota
	TypeB
	TypeC
)

// String names the corpus as in the paper.
func (t CorpusType) String() string {
	switch t {
	case TypeA:
		return "Type A"
	case TypeB:
		return "Type B"
	case TypeC:
		return "Type C"
	}
	return "Type ?"
}

// Corpus is one generated configuration data set.
type Corpus struct {
	Type  CorpusType
	Store *config.Store
	// Classes and Instances record the generated sizes.
	Classes   int
	Instances int
	// Archetypes maps class path to the generation archetype that
	// produced it; the branch generator uses it to pick injection
	// targets with known inferable constraints.
	Archetypes map[string]string
}

// archetype describes one class-generation pattern: how many instances a
// class gets and what values they take. The mix of archetypes shapes what
// the inference engine can mine (Table 5 / Figure 5).
type archetype struct {
	name   string
	weight float64
	gen    func(r *rand.Rand, cls *classGen)
}

// classGen emits the instances of one class.
type classGen struct {
	values []string
	pools  *valuePools
}

// valuePools holds run-local shared value pools; classes drawing the same
// pooled value form the equality clusters inference discovers (§4.5).
type valuePools struct {
	paths []string
	guids []string
}

func (p *valuePools) sharedPath(r *rand.Rand) string {
	if len(p.paths) > 0 && r.Intn(5) > 0 {
		return p.paths[r.Intn(len(p.paths))]
	}
	v := fmt.Sprintf(`\\cfgshare\builds\os\v%d.%d\image%d.vhd`, 1+r.Intn(4), r.Intn(10), r.Intn(30))
	p.paths = append(p.paths, v)
	return v
}

func (p *valuePools) sharedGUID(r *rand.Rand) string {
	if len(p.guids) > 0 && r.Intn(5) > 0 {
		return p.guids[r.Intn(len(p.guids))]
	}
	v := fmt.Sprintf("%08X-%04X-%04X-%04X-%012X", r.Uint32(), r.Intn(0xFFFF), r.Intn(0xFFFF), r.Intn(0xFFFF), r.Int63n(1<<47))
	p.guids = append(p.guids, v)
	return v
}

func (c *classGen) fill(n int, f func(i int) string) {
	c.values = make([]string, n)
	for i := range c.values {
		c.values[i] = f(i)
	}
}

// typeAArchetypes is tuned so inference over the generated corpus
// reproduces the Table 5 Type A shape: most classes typed, about half
// consistent, a modest range/uniqueness tail, and a small no-constraint
// residue (the paper's 79 IncidentOwner-style keys).
var typeAArchetypes = []archetype{
	{"constEmpty", 0.20, func(r *rand.Rand, c *classGen) {
		// Uniformly unset parameter: consistent, nothing else.
		n := len(c.values)
		c.fill(n, func(int) string { return "" })
	}},
	{"intRange", 0.10, func(r *rand.Rand, c *classGen) {
		base := r.Intn(200) * 10
		spread := 5 + r.Intn(60)
		c.fill(len(c.values), func(int) string { return fmt.Sprintf("%d", base+r.Intn(spread)) })
	}},
	{"intConst", 0.08, func(r *rand.Rand, c *classGen) {
		v := fmt.Sprintf("%d", 1+r.Intn(100))
		c.fill(len(c.values), func(int) string { return v })
	}},
	{"boolMixed", 0.08, func(r *rand.Rand, c *classGen) {
		c.fill(len(c.values), func(int) string {
			if r.Intn(4) == 0 {
				return "False"
			}
			return "True"
		})
	}},
	{"boolConst", 0.06, func(r *rand.Rand, c *classGen) {
		v := "True"
		if r.Intn(2) == 0 {
			v = "False"
		}
		c.fill(len(c.values), func(int) string { return v })
	}},
	{"ipUnique", 0.05, func(r *rand.Rand, c *classGen) {
		base := r.Intn(200)
		c.fill(len(c.values), func(i int) string {
			return fmt.Sprintf("10.%d.%d.%d", base, i/250, 1+i%250)
		})
	}},
	{"ipSparse", 0.07, func(r *rand.Rand, c *classGen) {
		// Typed, but a few instances left empty by customization: the
		// type survives the 95%% noise threshold, nonemptiness does not.
		base := r.Intn(200)
		c.fill(len(c.values), func(i int) string {
			if r.Intn(40) == 0 {
				return ""
			}
			return fmt.Sprintf("10.%d.0.%d", base, 1+r.Intn(250))
		})
		c.values[0] = "" // ensure at least one empty regardless of n
	}},
	{"pathConstShared", 0.09, func(r *rand.Rand, c *classGen) {
		v := c.pools.sharedPath(r)
		c.fill(len(c.values), func(int) string { return v })
	}},
	{"guidConstShared", 0.05, func(r *rand.Rand, c *classGen) {
		v := c.pools.sharedGUID(r)
		c.fill(len(c.values), func(int) string { return v })
	}},
	{"enumStr", 0.05, func(r *rand.Rand, c *classGen) {
		set := enumSets[r.Intn(len(enumSets))]
		c.fill(len(c.values), func(int) string { return set[r.Intn(len(set))] })
	}},
	{"urlSparse", 0.05, func(r *rand.Rand, c *classGen) {
		host := fmt.Sprintf("svc%02d", r.Intn(40))
		c.fill(len(c.values), func(i int) string {
			if r.Intn(40) == 0 {
				return ""
			}
			return fmt.Sprintf("https://%s.core.example.net/api%d", host, r.Intn(8))
		})
		c.values[len(c.values)-1] = ""
	}},
	// Trap archetypes: classes whose samples look more constrained than
	// their declared semantics — the causes of the paper's ~20% inference
	// inaccuracy (§6.3: "insufficient samples for a configuration and ...
	// suboptimal heuristics for certain inferences").
	{"rangeTrap", 0.04, func(r *rand.Rand, c *classGen) {
		// Semantically an unbounded tunable; the deployed sample happens
		// to sit in a narrow window, so a (wrong) range is inferred.
		base := 1000 + r.Intn(100)*100
		c.fill(len(c.values), func(int) string { return fmt.Sprintf("%d", base+r.Intn(8)) })
	}},
	{"enumTrap", 0.03, func(r *rand.Rand, c *classGen) {
		// Open vocabulary (operator-chosen labels); the sample repeats a
		// few values, so a (wrong) enumeration is inferred.
		set := []string{"dc-east", "dc-west", "dc-central"}
		c.fill(len(c.values), func(int) string { return set[r.Intn(len(set))] })
	}},
	{"uniqueTrap", 0.03, func(r *rand.Rand, c *classGen) {
		// Coincidentally distinct free identifiers; uniqueness is not a
		// real constraint, but the sample admits one.
		c.fill(len(c.values), func(i int) string {
			return fmt.Sprintf("task-%s-%04d", nouns[r.Intn(len(nouns))], i*7+r.Intn(7))
		})
	}},
	{"freeTextNonempty", 0.06, func(r *rand.Rand, c *classGen) {
		c.fill(len(c.values), func(i int) string {
			return fmt.Sprintf("%s %s team %d", adjectives[r.Intn(len(adjectives))], nouns[r.Intn(len(nouns))], r.Intn(90))
		})
	}},
	{"freeTextSparse", 0.06, func(r *rand.Rand, c *classGen) {
		// IncidentOwner-style: sometimes set, free-form — nothing to
		// infer.
		c.fill(len(c.values), func(i int) string {
			if r.Intn(3) == 0 {
				return ""
			}
			return fmt.Sprintf("%s %s", nouns[r.Intn(len(nouns))], adjectives[r.Intn(len(adjectives))])
		})
		c.values[0] = ""
	}},
}

// GroundTruthKinds maps each Type A archetype to the constraint
// categories that are semantically correct for its classes (Table 5
// category names, with enumerations folded into "Range"). Inference
// output outside these sets is an inaccuracy — the §6.3 accuracy
// experiment scores against this table. The trap archetypes deliberately
// admit constraints their semantics do not justify.
var GroundTruthKinds = map[string][]string{
	"constEmpty":       {"Consistency"},
	"intRange":         {"Type", "Nonempty", "Range"},
	"intConst":         {"Type", "Nonempty", "Consistency"},
	"boolMixed":        {"Type", "Nonempty"},
	"boolConst":        {"Type", "Nonempty", "Consistency"},
	"ipUnique":         {"Type", "Nonempty", "Uniqueness"},
	"ipSparse":         {"Type"},
	"pathConstShared":  {"Type", "Nonempty", "Consistency", "Equality"},
	"guidConstShared":  {"Type", "Nonempty", "Consistency", "Equality"},
	"enumStr":          {"Nonempty", "Range"},
	"urlSparse":        {"Type"},
	"freeTextNonempty": {"Nonempty"},
	"freeTextSparse":   {},
	"rangeTrap":        {"Type", "Nonempty"},
	"enumTrap":         {"Nonempty"},
	"uniqueTrap":       {"Nonempty"},
}

var enumSets = [][]string{
	{"compute", "storage"},
	{"compute", "storage", "network"},
	{"primary", "secondary"},
	{"basic", "standard", "premium"},
	{"weighted", "roundrobin", "random"},
}

var adjectives = []string{"legacy", "critical", "managed", "shared", "regional", "internal", "primary", "standby"}
var nouns = []string{"storage", "fabric", "network", "billing", "directory", "monitor", "gateway", "cache"}

var componentNames = []string{
	"Fabric", "Storage", "Network", "Compute", "Directory", "Billing",
	"Monitor", "Gateway", "Cache", "Scheduler", "Deployment", "Security",
	"Dns", "LoadBalancer", "Sql", "Media", "Backup", "Metrics",
}

var paramStems = []string{
	"Timeout", "Retries", "Threshold", "Endpoint", "Path", "Enabled",
	"Replicas", "Interval", "Limit", "Capacity", "Address", "Prefix",
	"Owner", "Account", "Secret", "Token", "Version", "Mode", "Pool",
	"Quota", "Weight", "Region", "Zone", "Port", "Ttl", "BatchSize",
}

// GenerateA builds a Type A corpus at the given scale (1.0 = paper size:
// 1,391 classes / ≈67k instances). The same seed yields the same corpus.
func GenerateA(scale float64, seed int64) *Corpus {
	r := rand.New(rand.NewSource(seed))
	pools := &valuePools{}
	st := config.NewStore()
	nClasses := int(1391 * scale)
	if nClasses < 10 {
		nClasses = 10
	}
	clusters := clusterNames(r, 90)
	instances := 0
	archetypes := make(map[string]string, nClasses)
	for ci := 0; ci < nClasses; ci++ {
		comp := componentNames[ci%len(componentNames)]
		param := fmt.Sprintf("%s%s%d", comp, paramStems[r.Intn(len(paramStems))], ci)
		arch := pickArchetype(r, typeAArchetypes)
		n := 24 + r.Intn(49) // ≈48 instances per class on average
		cg := &classGen{values: make([]string, n), pools: pools}
		arch.gen(r, cg)
		// Spread the instances over clusters: Cluster::cX.<Comp>.<Param>.
		for i, v := range cg.values {
			key := config.Key{Segs: []config.Seg{
				{Name: "Cluster", Inst: clusters[(ci+i)%len(clusters)], Index: (ci+i)%len(clusters) + 1},
				{Name: comp},
				{Name: param},
			}}
			if i == 0 {
				archetypes[key.ClassPath()] = arch.name
			}
			st.Add(&config.Instance{Key: key, Value: v, Source: "azure-type-a.xml"})
			instances++
		}
	}
	return &Corpus{Type: TypeA, Store: st, Classes: len(st.Classes()), Instances: instances, Archetypes: archetypes}
}

// GenerateB builds a Type B corpus: few classes, enormous replication
// (Cluster::cX.Node[i].<Param>). scale 1.0 ≈ 2.3M instances.
func GenerateB(scale float64, seed int64) *Corpus {
	r := rand.New(rand.NewSource(seed))
	st := config.NewStore()
	nClasses := 162
	perClass := int(14240 * scale)
	if perClass < 20 {
		perClass = 20
	}
	nClusters := perClass/64 + 1
	instances := 0
	clusters := clusterNames(r, nClusters)
	for ci := 0; ci < nClasses; ci++ {
		param := fmt.Sprintf("Node%s%d", paramStems[ci%len(paramStems)], ci)
		kind := ci % 10
		var gen func(i int) string
		switch {
		case kind < 3: // typed constant (consistency comes from the top)
			v := fmt.Sprintf("%d", 16+ci)
			gen = func(int) string { return v }
		case kind < 6: // int in a narrow range
			base := 10 * (ci % 30)
			gen = func(int) string { return fmt.Sprintf("%d", base+r.Intn(12)) }
		case kind < 8: // unique node address
			gen = func(i int) string {
				return fmt.Sprintf("10.%d.%d.%d", ci%200, (i/250)%250, 1+i%250)
			}
		case kind < 9: // boolean flag
			gen = func(int) string {
				if r.Intn(10) == 0 {
					return "false"
				}
				return "true"
			}
		default: // free text with occasional blanks
			gen = func(i int) string {
				if i%17 == 0 {
					return ""
				}
				return fmt.Sprintf("node profile %d", i%97)
			}
		}
		for i := 0; i < perClass; i++ {
			key := config.Key{Segs: []config.Seg{
				{Name: "Cluster", Inst: clusters[i%nClusters], Index: i%nClusters + 1},
				{Name: "Node", Index: i/nClusters + 1},
				{Name: param},
			}}
			st.Add(&config.Instance{Key: key, Value: gen(i), Source: "azure-type-b.kv"})
			instances++
		}
	}
	return &Corpus{Type: TypeB, Store: st, Classes: len(st.Classes()), Instances: instances}
}

// GenerateC builds a Type C corpus: 95 classes, ≈24 instances each,
// INI-style service settings — almost everything typed, most consistent.
func GenerateC(scale float64, seed int64) *Corpus {
	r := rand.New(rand.NewSource(seed))
	st := config.NewStore()
	nClasses := 95
	perClass := int(24 * scale)
	if perClass < 4 {
		perClass = 4
	}
	instances := 0
	environments := clusterNames(r, perClass)
	for ci := 0; ci < nClasses; ci++ {
		section := []string{"api", "db", "auth", "worker", "metrics"}[ci%5]
		param := fmt.Sprintf("%s_%s_%d", section, []string{"timeout", "port", "host", "retries", "flag"}[ci%5], ci)
		var gen func(i int) string
		switch ci % 5 {
		case 0: // constant duration
			v := fmt.Sprintf("%ds", 5*(1+ci%12))
			gen = func(int) string { return v }
		case 1: // constant port
			v := fmt.Sprintf("%d", 1024+ci*7%50000)
			gen = func(int) string { return v }
		case 2: // constant host
			v := fmt.Sprintf("%s%02d.internal.example.net", section, ci%20)
			gen = func(int) string { return v }
		case 3: // small int range
			gen = func(int) string { return fmt.Sprintf("%d", 1+r.Intn(5)) }
		default: // boolean, mostly constant
			v := "true"
			gen = func(int) string { return v }
		}
		for i := 0; i < perClass; i++ {
			key := config.Key{Segs: []config.Seg{
				{Name: "Env", Inst: environments[i%len(environments)], Index: i%len(environments) + 1},
				{Name: section},
				{Name: param},
			}}
			st.Add(&config.Instance{Key: key, Value: gen(i), Source: "azure-type-c.ini"})
			instances++
		}
	}
	return &Corpus{Type: TypeC, Store: st, Classes: len(st.Classes()), Instances: instances}
}

func pickArchetype(r *rand.Rand, archs []archetype) archetype {
	total := 0.0
	for _, a := range archs {
		total += a.weight
	}
	x := r.Float64() * total
	for _, a := range archs {
		x -= a.weight
		if x <= 0 {
			return a
		}
	}
	return archs[len(archs)-1]
}

func clusterNames(r *rand.Rand, n int) []string {
	regions := []string{"east1", "east2", "west1", "west2", "north1", "europe1", "asia1"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-c%03d", regions[i%len(regions)], i)
	}
	return out
}
