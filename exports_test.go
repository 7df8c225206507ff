package moelightning

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExports are the exported functions and methods no non-test
// file names, each with the reason it stays. Keys are "package.Func" or
// "package.Type.Method".
var uncalledExports = map[string]string{
	// The facade is the library's public surface: a preset or entry point
	// is there for users, whether or not cmd/ or examples/ happen to use it.
	"moelightning.SettingS2":         "facade preset (Tab. 2)",
	"moelightning.SettingS6":         "facade preset (Tab. 2)",
	"moelightning.SettingS7":         "facade preset (Tab. 2)",
	"moelightning.SettingS8":         "facade preset (Tab. 2)",
	"moelightning.SettingS9":         "facade preset (Tab. 2)",
	"moelightning.SummarizationHELM": "facade preset (Tab. 3)",
	"moelightning.RunFunctional":     "facade entry point: the closed-batch run the package doc names; the root tests' verified oracle",
	"moelightning.System.Estimate":   "facade entry point: the model's throughput for a policy without a search",
	"moelightning.System.Roofline":   "facade entry point: the HRM of the system's hardware, what hrmplot builds from the spec directly",
	"moelightning.NewFaultInjector":  "facade constructor for ServerConfig.Faults; internal/chaos builds the injector directly",

	// What another package's test (or CI) measures the engine against.
	"kvcache.Cache.UsedBlocks": "test oracle: the pool-capacity view (blocks a sequence holds; a cached prefix block counts as free) prefix sharing is asserted against",
	"memory.Arena.Used":        "test oracle: engine and paging tests assert arena footprints through it",
	"tensor.DequantizeRow":     "test oracle: kvcache's tests decode stored int8 rows with it",
	"tensor.Mat.Set":           "test oracle: kvcache's zero-copy test writes through a block view with it",
	"tensor.SiLU":              "test oracle: the definition SiLUMul is proven against in tensor's kernels_test.go",
	"tensor.Mat.Clone":         "test input: engine's postAttention identity test copies its inputs with it, and identity tests are not edited to delete a helper",
	"tensor.MatMulT":           "the sequential definition MatMulTParallel is proven identical to; CI's bench smoke runs BenchmarkKernelsMatMulT",
	"policy.WithMaxN":          "test input: the root search-to-serve test pins the search to waves the tiny arenas hold",
	"policy.WithMuGrid":        "test input: same test, micro-batch sizes the functional engine runs",
	"policy.WithRwGrid":        "test input: same test, r_w = 0 because the engine always streams weights",
	"traffic.PoissonChat":      "test input: traffic's runner and trace tests build their steady chat-and-agentic traces with it",

	// Waiting for the ROADMAP item that gives them a caller.
	"sim.Result.BubbleTime":     "ROADMAP item 5 applies it to measured steps",
	"sim.Result.KindTime":       "ROADMAP item 5 applies it to measured steps",
	"traffic.SimulateAdmission": "the only deterministic check that slack order beats length order and that shedding bounds TTFT (ROADMAP item 8)",
}

// TestExportsHaveCallers is ROADMAP item 8's scan, kept as a test: every
// exported top-level function and method of the root package and
// internal/ must be named by some non-test file — internal/, the facade,
// bench/, cmd/ or examples/ — outside its own declaration, or carry a
// reason in uncalledExports. The match is by name (parser only, no type
// information), so a dead function that shares its name with a live one
// passes; a live one is never flagged.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct{ key, name string }
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && file != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's build cache
		}
		if d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		pkg := path.Base(dir)
		if dir == "." {
			pkg = "moelightning"
		}
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || (dir != "." && !strings.HasPrefix(dir, "internal/")) {
				continue
			}
			key := pkg + "."
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				key += recv.(*ast.Ident).Name + "."
			}
			own[fn.Name] = true
			decls = append(decls, decl{key + fn.Name.Name, fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, excused := uncalledExports[d.key]
		switch {
		case !refs[d.name] && !excused:
			bad = append(bad, d.key+": no non-test file names it; delete it or give uncalledExports a reason")
		case refs[d.name] && excused:
			bad = append(bad, d.key+": a non-test file names it now; drop it from uncalledExports")
		}
	}
	for key := range uncalledExports {
		if !declared[key] {
			bad = append(bad, key+": listed in uncalledExports but not declared")
		}
	}
	sort.Strings(bad)
	for _, msg := range bad {
		t.Error(msg)
	}
}
