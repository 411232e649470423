package parser

import (
	"strings"
	"testing"

	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/token"
	"confvalley/internal/vtype"
)

func parseOne(t *testing.T, src string) ast.Stmt {
	t.Helper()
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("Parse(%q) = %d statements, want 1", src, len(stmts))
	}
	return stmts[0]
}

func spec(t *testing.T, src string) *ast.SpecStmt {
	t.Helper()
	s, ok := parseOne(t, src).(*ast.SpecStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *ast.SpecStmt", src, parseOne(t, src))
	}
	return s
}

func TestSimpleSpec(t *testing.T) {
	s := spec(t, "$OSBuildPath -> path & exists")
	ref, ok := s.Domain.(*ast.Ref)
	if !ok || ref.Pattern.String() != "OSBuildPath" {
		t.Fatalf("domain = %#v", s.Domain)
	}
	and, ok := s.Pred.(*ast.And)
	if !ok {
		t.Fatalf("pred = %T", s.Pred)
	}
	tp, ok := and.L.(*ast.TypePred)
	if !ok || tp.T != vtype.Scalar(vtype.KindPath) {
		t.Errorf("left = %#v", and.L)
	}
	pr, ok := and.R.(*ast.Prim)
	if !ok || pr.Name != "exists" {
		t.Errorf("right = %#v", and.R)
	}
}

func TestTypeAndRange(t *testing.T) {
	s := spec(t, "$Fabric.AlertFailNodesThreshold -> int & nonempty & [5,15]")
	if s.Quant != ast.QuantAll {
		t.Errorf("quant = %v", s.Quant)
	}
	// ((int & nonempty) & [5,15])
	outer := s.Pred.(*ast.And)
	rng, ok := outer.R.(*ast.Range)
	if !ok {
		t.Fatalf("range = %T", outer.R)
	}
	lo := rng.Lo.(*ast.Lit)
	hi := rng.Hi.(*ast.Lit)
	if lo.Text != "5" || hi.Text != "15" || lo.Kind != token.INT {
		t.Errorf("bounds = %v..%v", lo.Text, hi.Text)
	}
}

func TestEnumFromDomain(t *testing.T) {
	s := spec(t, "$Cluster.MachinePool -> {$MachinePool.Name}")
	en, ok := s.Pred.(*ast.Enum)
	if !ok || len(en.Elems) != 1 {
		t.Fatalf("pred = %#v", s.Pred)
	}
	de, ok := en.Elems[0].(*ast.DomainExpr)
	if !ok {
		t.Fatalf("elem = %T", en.Elems[0])
	}
	if de.D.(*ast.Ref).Pattern.String() != "MachinePool.Name" {
		t.Errorf("enum domain = %v", de.D)
	}
}

func TestCompartmentBlock(t *testing.T) {
	src := `
compartment Cluster {
  $ProxyIP -> [$StartIP, $EndIP]
  $IPv6Prefix -> ~nonempty | @UniqueCIDR
}`
	st := parseOne(t, src).(*ast.BlockStmt)
	if st.Kind != ast.BlockCompartment || st.Scope.String() != "Cluster" {
		t.Fatalf("block = %+v", st)
	}
	if len(st.Body) != 2 {
		t.Fatalf("body = %d statements", len(st.Body))
	}
	s1 := st.Body[0].(*ast.SpecStmt)
	rng := s1.Pred.(*ast.Range)
	if rng.Lo.(*ast.DomainExpr).D.(*ast.Ref).Pattern.String() != "StartIP" {
		t.Errorf("range lo = %#v", rng.Lo)
	}
	s2 := st.Body[1].(*ast.SpecStmt)
	or := s2.Pred.(*ast.Or)
	if _, ok := or.L.(*ast.Not); !ok {
		t.Errorf("or.L = %T", or.L)
	}
	if m, ok := or.R.(*ast.MacroRef); !ok || m.Name != "UniqueCIDR" {
		t.Errorf("or.R = %#v", or.R)
	}
}

func TestNamespaceSingleStatement(t *testing.T) {
	st := parseOne(t, "namespace r.s $k1 -> nonempty").(*ast.BlockStmt)
	if st.Kind != ast.BlockNamespace || st.Scope.String() != "r.s" || len(st.Body) != 1 {
		t.Fatalf("block = %+v", st)
	}
}

func TestInlineCompartmentDomain(t *testing.T) {
	s := spec(t, "#[Datacenter] $Machinepool.FillFactor# -> consistent")
	cd, ok := s.Domain.(*ast.CompartmentDomain)
	if !ok || cd.Scope.String() != "Datacenter" {
		t.Fatalf("domain = %#v", s.Domain)
	}
	if cd.Inner.(*ast.Ref).Pattern.String() != "Machinepool.FillFactor" {
		t.Errorf("inner = %v", cd.Inner)
	}
	if pr, ok := s.Pred.(*ast.Prim); !ok || pr.Name != "consistent" {
		t.Errorf("pred = %#v", s.Pred)
	}
}

func TestIfStmtWithQuantifiedCondition(t *testing.T) {
	src := `
if (exists $RoutingEntry.Gateway == 'LoadBalancerGateway')
  $LoadBalancerSet.Device -> nonempty
`
	st := parseOne(t, src).(*ast.IfStmt)
	if st.Cond.Quant != ast.QuantExists {
		t.Errorf("cond quant = %v", st.Cond.Quant)
	}
	rel, ok := st.Cond.Pred.(*ast.Rel)
	if !ok || rel.Op != token.EQ {
		t.Fatalf("cond pred = %#v", st.Cond.Pred)
	}
	if rel.Rhs.(*ast.Lit).Text != "LoadBalancerGateway" {
		t.Errorf("rhs = %#v", rel.Rhs)
	}
	if len(st.Then) != 1 || st.Else != nil {
		t.Errorf("then/else = %d/%v", len(st.Then), st.Else)
	}
}

func TestIfElseWithVariableBinding(t *testing.T) {
	src := `
if ($CloudName -> ~match('UtilityFabric')) {
  $Fabric::$CloudName.TenantName -> split(':') -> at(0) -> $_ == $UfcName
} else {
  $Fabric::$CloudName.TenantName -> ~nonempty
}`
	st := parseOne(t, src).(*ast.IfStmt)
	if _, ok := st.Cond.Pred.(*ast.Not); !ok {
		t.Fatalf("cond = %#v", st.Cond.Pred)
	}
	then := st.Then[0].(*ast.SpecStmt)
	pipe, ok := then.Domain.(*ast.Pipe)
	if !ok || len(pipe.Steps) != 2 {
		t.Fatalf("then domain = %#v", then.Domain)
	}
	if pipe.Steps[0].T.Name != "split" || pipe.Steps[1].T.Name != "at" {
		t.Errorf("steps = %v, %v", pipe.Steps[0].T.Name, pipe.Steps[1].T.Name)
	}
	src0 := pipe.Src.(*ast.Ref)
	if src0.Pattern.Segs[0].InstVar != "CloudName" {
		t.Errorf("variable binding: %+v", src0.Pattern.Segs[0])
	}
	rel, ok := then.Pred.(*ast.Rel)
	if !ok || rel.Op != token.EQ {
		t.Fatalf("then pred = %#v", then.Pred)
	}
	els := st.Else[0].(*ast.SpecStmt)
	if _, ok := els.Pred.(*ast.Not); !ok {
		t.Errorf("else pred = %#v", els.Pred)
	}
}

func TestVipRangesPipeline(t *testing.T) {
	src := `$MachinPoolName -> foreach($MachinPool::$_.LoadBalancer.VipRanges)
  -> if (nonempty) split('-')
  -> [at(0), at(1)] -> exists [$StartIP, $EndIP]`
	s := spec(t, src)
	pipe := s.Domain.(*ast.Pipe)
	if len(pipe.Steps) != 3 {
		t.Fatalf("steps = %d", len(pipe.Steps))
	}
	if pipe.Steps[0].T.Name != "foreach" {
		t.Errorf("step0 = %v", pipe.Steps[0].T.Name)
	}
	if pipe.Steps[1].Guard == nil || pipe.Steps[1].T.Name != "split" {
		t.Errorf("step1 = %+v", pipe.Steps[1])
	}
	if pipe.Steps[2].T.Name != "tuple" || len(pipe.Steps[2].T.Args) != 2 {
		t.Errorf("step2 = %+v", pipe.Steps[2].T)
	}
	qp, ok := s.Pred.(*ast.QuantPred)
	if !ok || qp.Q != ast.QuantExists {
		t.Fatalf("pred = %#v", s.Pred)
	}
	if _, ok := qp.X.(*ast.Range); !ok {
		t.Errorf("quantified pred = %T", qp.X)
	}
}

func TestCommands(t *testing.T) {
	stmts, err := Parse(`
load 'xml' '/path/to/settings'
load 'rest' '10.119.64.74:443' as RunningInstance
include 'type_checks.prop'
let UniqueCIDR := unique & cidr
policy on_violation 'continue'
get $Fabric.Timeout
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 6 {
		t.Fatalf("statements = %d", len(stmts))
	}
	l1 := stmts[0].(*ast.LoadStmt)
	if l1.Driver != "xml" || l1.Source != "/path/to/settings" || l1.Scope != "" {
		t.Errorf("load1 = %+v", l1)
	}
	l2 := stmts[1].(*ast.LoadStmt)
	if l2.Scope != "RunningInstance" {
		t.Errorf("load2 scope = %q", l2.Scope)
	}
	inc := stmts[2].(*ast.IncludeStmt)
	if inc.Path != "type_checks.prop" {
		t.Errorf("include = %+v", inc)
	}
	let := stmts[3].(*ast.LetStmt)
	if let.Name != "UniqueCIDR" {
		t.Errorf("let = %+v", let)
	}
	if _, ok := let.Pred.(*ast.And); !ok {
		t.Errorf("let pred = %T", let.Pred)
	}
	pol := stmts[4].(*ast.PolicyStmt)
	if pol.Name != "on_violation" || pol.Value != "continue" {
		t.Errorf("policy = %+v", pol)
	}
	if _, ok := stmts[5].(*ast.GetStmt); !ok {
		t.Errorf("get = %T", stmts[5])
	}
}

func TestStatementLevelRelation(t *testing.T) {
	s := spec(t, "$VLAN.StartIP <= $VLAN.EndIP")
	rel := s.Pred.(*ast.Rel)
	if rel.Op != token.LE {
		t.Errorf("op = %v", rel.Op)
	}
	rhs := rel.Rhs.(*ast.DomainExpr).D.(*ast.Ref)
	if rhs.Pattern.String() != "VLAN.EndIP" {
		t.Errorf("rhs = %v", rhs.Pattern)
	}
}

func TestUnicodeSpec(t *testing.T) {
	s := spec(t, "#[Datacenter] $Machinepool.FillFactor# → consistent")
	if _, ok := s.Domain.(*ast.CompartmentDomain); !ok {
		t.Errorf("unicode arrow domain = %T", s.Domain)
	}
}

func TestInstanceNotations(t *testing.T) {
	s := spec(t, "$Fabric::inst1.RecoveryAttempts -> int")
	ref := s.Domain.(*ast.Ref)
	if ref.Pattern.Segs[0].Inst != "inst1" {
		t.Errorf("named instance = %+v", ref.Pattern.Segs[0])
	}
	s = spec(t, "$Fabric[1].RecoveryAttempts -> int")
	ref = s.Domain.(*ast.Ref)
	if ref.Pattern.Segs[0].Index != 1 {
		t.Errorf("numbered instance = %+v", ref.Pattern.Segs[0])
	}
	s = spec(t, "$CloudGroup::'SSD Cluster'.ControllerReplicas -> int")
	ref = s.Domain.(*ast.Ref)
	if ref.Pattern.Segs[0].Inst != "SSD Cluster" {
		t.Errorf("quoted instance = %+v", ref.Pattern.Segs[0])
	}
	s = spec(t, "$*IP -> ip")
	ref = s.Domain.(*ast.Ref)
	if ref.Pattern.Segs[0].Name != "*IP" {
		t.Errorf("wildcard key = %+v", ref.Pattern.Segs[0])
	}
	s = spec(t, "$*.SecretKey -> nonempty")
	ref = s.Domain.(*ast.Ref)
	if ref.Pattern.Segs[0].Name != "*" || ref.Pattern.Segs[1].Name != "SecretKey" {
		t.Errorf("wildcard scope = %v", ref.Pattern)
	}
}

func TestListTypePredicate(t *testing.T) {
	s := spec(t, "$ProxyIPs -> list(ip)")
	tp := s.Pred.(*ast.TypePred)
	if tp.T != vtype.ListOf(vtype.KindIP) {
		t.Errorf("type = %v", tp.T)
	}
}

func TestQuantifiedStatement(t *testing.T) {
	s := spec(t, "exists $Cluster.Role -> == 'controller'")
	if s.Quant != ast.QuantExists {
		t.Errorf("quant = %v", s.Quant)
	}
	s = spec(t, "one $Cluster.Role -> == 'primary'")
	if s.Quant != ast.QuantOne {
		t.Errorf("quant = %v", s.Quant)
	}
}

func TestIfPredTerminal(t *testing.T) {
	s := spec(t, "$X -> if (nonempty) ip else consistent")
	ip, ok := s.Pred.(*ast.IfPred)
	if !ok {
		t.Fatalf("pred = %T", s.Pred)
	}
	if _, ok := ip.Then.(*ast.TypePred); !ok {
		t.Errorf("then = %T", ip.Then)
	}
	if _, ok := ip.Else.(*ast.Prim); !ok {
		t.Errorf("else = %T", ip.Else)
	}
}

func TestBinaryDomains(t *testing.T) {
	s := spec(t, "$A + $B -> [0, 100]")
	bd, ok := s.Domain.(*ast.BinaryDomain)
	if !ok || bd.Op != token.PLUS {
		t.Fatalf("domain = %#v", s.Domain)
	}
	s = spec(t, "count($MacRange) == count($IpRange)")
	pipe, ok := s.Domain.(*ast.Pipe)
	if !ok || pipe.Steps[0].T.Name != "count" {
		t.Fatalf("prefix transform = %#v", s.Domain)
	}
	rel := s.Pred.(*ast.Rel)
	rhsPipe := rel.Rhs.(*ast.DomainExpr).D.(*ast.Pipe)
	if rhsPipe.Steps[0].T.Name != "count" {
		t.Errorf("rhs = %#v", rel.Rhs)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"$",
		"$X ->",
		"$X -> [5,]",
		"$X -> {",
		"load 'xml'",
		"let X := ",
		"namespace { }",
		"$X nonempty",
		"compartment C { $X -> int",
		"if ($X -> int) ",
		"$X -> match(5)",
		"$X -> list(nosuch)",
		"all",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("$X ->\n  -> int")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "cpl:") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	// Render then re-parse: ASTs should agree structurally (idempotent
	// rendering).
	srcs := []string{
		"$OSBuildPath -> path & exists",
		"$Fabric.AlertFailNodesThreshold -> int & nonempty & [5, 15]",
		"#[Datacenter] $Machinepool.FillFactor# -> consistent",
		"$Cluster.MachinePool -> {$MachinePool.Name}",
		"$IPv6Prefix -> ~nonempty | @UniqueCIDR",
		"exists $Cluster.Role -> == 'controller'",
		"$X -> split(':') -> at(0) -> == 'prefix'",
	}
	for _, src := range srcs {
		s1 := spec(t, src)
		rendered := ast.Render(s1)
		s2 := spec(t, rendered)
		if ast.Render(s2) != rendered {
			t.Errorf("render not idempotent:\n  src: %s\n  r1: %s\n  r2: %s", src, rendered, ast.Render(s2))
		}
	}
}

func TestMultiStatementProgram(t *testing.T) {
	src := `
/* Prepare configuration sources */
load 'kv' 'cloudsettings'
let UniqueCIDR := unique & cidr

// machinepool in cluster is one of the defined machinepool names
$Cluster.MachinePool -> {$MachinePool.Name}

$Fabric.AlertFailNodesThreshold -> int & nonempty
  & [5,15]

compartment Cluster {
  $ProxyIP -> [$StartIP, $EndIP]
}

if (exists $RoutingEntry.Gateway == 'LoadBalancerGateway')
  $LoadBalancerSet.Device -> nonempty
`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 6 {
		for _, s := range stmts {
			t.Logf("  %s", ast.Render(s))
		}
		t.Fatalf("statements = %d, want 6", len(stmts))
	}
}

// Every statement node carries the position of its first token, so
// compile and lint diagnostics can render file:line:col uniformly.
func TestStatementPositions(t *testing.T) {
	src := `load 'ini' '/etc/app.ini'
include 'common.cpl'
let M := nonempty
policy on_violation 'continue'
$Fabric.X -> int
if (exists $F -> int) { $Y -> bool }
namespace Fabric {
  $Z -> int
}
get $Fabric.X
`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := []int{1, 2, 3, 4, 5, 6, 7, 10}
	if len(stmts) != len(wantLines) {
		t.Fatalf("statements = %d, want %d", len(stmts), len(wantLines))
	}
	for i, st := range stmts {
		pos := st.Pos()
		if pos.Line != wantLines[i] || pos.Col != 1 {
			t.Errorf("stmt %d (%T) pos = %s, want %d:1", i, st, pos, wantLines[i])
		}
	}
	// Nested statements are positioned too.
	ifst := stmts[5].(*ast.IfStmt)
	if p := ifst.Then[0].Pos(); p.Line != 6 || p.Col != 25 {
		t.Errorf("if-body spec pos = %s, want 6:25", p)
	}
	block := stmts[6].(*ast.BlockStmt)
	if p := block.Body[0].Pos(); p.Line != 8 || p.Col != 3 {
		t.Errorf("block-body spec pos = %s, want 8:3", p)
	}
}
