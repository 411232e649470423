package plan

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/simenv"
)

// maxFuzzSource bounds a FuzzFootprint input; every seed file is smaller.
const maxFuzzSource = 4 << 10

// walkSeeds are the programs behind the step-guard and if-condition
// fixes: a binding variable used only inside a guard, and unknown
// predicates or undefined macros in a guard or a condition.
var walkSeeds = []string{
	"if ($CloudName -> match('UtilityFabric')) { $Setting -> if (== $Fabric::$CloudName.Expected) split(':') -> at(0) -> == 'a' }",
	"$x -> if (bogus(1)) trim() -> nonempty",
	"$x -> if (@nomacro) trim() -> nonempty",
	"if ($x -> bogus(1)) { $y -> nonempty }",
	"if ($x -> @nomacro) { $y -> nonempty }",
	"let M := == $B\n$A -> if (@M) split(',') -> foreach($C::$_.D) -> [$E, $F] & {$G, 'x'}",
}

// FuzzFootprint holds the ast.Inspect walks to the hand-written ones
// they replaced (walk_oracle_test.go). For every source that compiles,
// with and without the optimizer, every spec's footprint must equal the
// oracle's — patterns in order, Dynamic and Reason — and deepUsesCur
// must agree with its oracle on every expression ast.Inspect reaches.
// The program must also lower without panicking, and pass the read-set
// oracle (readset_test.go) against a store generated from its own
// references.
func FuzzFootprint(f *testing.F) {
	files, _ := filepath.Glob("../../specs/*.cpl")
	corpus, _ := filepath.Glob("../../specs/lintcorpus/*.cpl")
	for _, name := range append(files, corpus...) {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, src := range walkSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzSource {
			return
		}
		for _, optimize := range []bool{false, true} {
			prog, err := compiler.CompileWith(src, compiler.Options{Optimize: optimize})
			if err != nil {
				return
			}
			checkWalks(t, prog)
			checkReadSet(t, prog, generatedStore(prog), simenv.NewSim())
		}
	})
}

func checkWalks(t *testing.T, prog *compiler.Program) {
	t.Helper()
	exprs := func(n ast.Node) bool {
		if x, ok := n.(ast.Expr); ok {
			if got, want := deepUsesCur(x), oracleDeepUsesCur(x); got != want {
				t.Fatalf("deepUsesCur(%s) = %v, oracle %v", ast.Render(x), got, want)
			}
		}
		return true
	}
	for _, m := range prog.Macros {
		ast.Inspect(m, exprs)
	}
	for _, spec := range prog.Specs {
		got, want := extractFootprint(prog, spec), oracleExtractFootprint(prog, spec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %q: footprint\n%+v\noracle\n%+v", spec.Text, got, want)
		}
		for _, c := range spec.Conds {
			ast.Inspect(c.Spec, exprs)
		}
		for _, d := range spec.Domains {
			ast.Inspect(d, exprs)
		}
		ast.Inspect(spec.Pred, exprs)
	}
}
