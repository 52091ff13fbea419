package paco

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed lists the production functions no shipped program calls
// that stay anyway, each with its reason. Keys are linker names. An entry
// belongs here only when the caller is another package's test, so the
// function cannot move into its own package's export_test.go.
var reachAllowed = map[string]string{
	"paco/internal/cache.(*Cache).Stats":              "cpu's kernel golden pins every cache's counters",
	"paco/internal/branch.(*BTB).Stats":               "cpu's kernel golden pins the BTB's lookup and hit counts",
	"paco/internal/workload.(*Tape).Cursors":          "cpu's batch tests check that Attach registers exactly one tape cursor per extra lane",
	"paco/internal/workload.(*Walker).BranchStats":    "scenario's branch-stats golden pins every static branch's class and counts",
	"paco/internal/server.(*Server).InstrumentWorker": "servertest's in-process cluster records its workers into the coordinator's instruments",
}

// TestEveryFunctionReached fails on a production function or method that
// no shipped program reaches. The programs are every main package of the
// module (cmd/* and examples/*) plus perfbench, the benchmark module.
// Each is linked with inlining off and the linker's dependency dump on;
// a function counts as reached when its linker name appears on either
// side of an edge. The root package's exported functions, the exported
// methods of the types paco.go aliases, and reachAllowed are the only
// exceptions. A function only tests call belongs in a _test.go file.
func TestEveryFunctionReached(t *testing.T) {
	if testing.Short() {
		t.Skip("links every program")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	readSources(t, root)
	pkgs := listPackages(t, goTool)
	var mains []string
	for _, p := range pkgs {
		if p.name == "main" {
			mains = append(mains, p.importPath)
		}
	}
	if len(mains) == 0 {
		t.Fatal("no main packages found")
	}
	bin := t.TempDir()
	reached := make(map[string]bool)
	linkDeps(t, goTool, ".", bin+string(filepath.Separator), mains, reached)
	linkDeps(t, goTool, "perfbench", filepath.Join(bin, "perfbench"), []string{"."}, reached)

	aliased := aliasedTypes(t)
	var missing []string
	allowed := make(map[string]bool)
	for _, p := range pkgs {
		if p.name == "main" {
			continue
		}
		for _, name := range p.goFiles {
			path := filepath.Join(p.dir, name)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				names, recv := linkerNames(p.importPath, fn)
				if slices.ContainsFunc(names, func(n string) bool { return reached[n] }) {
					continue
				}
				if _, ok := reachAllowed[names[0]]; ok {
					allowed[names[0]] = true
					continue
				}
				if fn.Name.IsExported() && (recv == "" && p.importPath == "paco" ||
					recv != "" && aliased[p.importPath+"."+recv]) {
					continue
				}
				rel, err := filepath.Rel(root, path)
				if err != nil {
					rel = path
				}
				pos := fset.Position(fn.Pos())
				missing = append(missing, rel+":"+strconv.Itoa(pos.Line)+" "+names[0])
			}
		}
	}
	slices.Sort(missing)
	if len(missing) > 0 {
		t.Errorf("%d production functions are reached by no program; delete them, move them into a _test.go file, or add them to reachAllowed with a reason:\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
	for name := range reachAllowed {
		if !allowed[name] {
			t.Errorf("reachAllowed lists %s, which is no unreached production function", name)
		}
	}
}

// readSources reads every Go source and module file under root in this
// process. go test caches a passing result against the files and
// directories the test itself opens; the builds and go list run in child
// processes, so without this a cached pass would outlive a change to a
// program or a package.
func readSources(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

type goPackage struct {
	importPath, name, dir string
	goFiles               []string
}

// listPackages lists the module's packages with their non-test files, as
// the build sees them on this platform.
func listPackages(t *testing.T, goTool string) []goPackage {
	t.Helper()
	out, err := exec.Command(goTool, "list", "-f",
		`{{.ImportPath}}	{{.Name}}	{{.Dir}}	{{join .GoFiles " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []goPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("go list line %q", line)
		}
		pkgs = append(pkgs, goPackage{f[0], f[1], f[2], strings.Fields(f[3])})
	}
	return pkgs
}

// linkDeps builds pkgs in dir with inlining off and the linker's
// dependency dump on, and adds every symbol of every edge to reached,
// normalised by reachedName.
func linkDeps(t *testing.T, goTool, dir, out string, pkgs []string, reached map[string]bool) {
	t.Helper()
	args := append([]string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", out}, pkgs...)
	cmd := exec.Command(goTool, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	edges := 0
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		edges++
		reached[reachedName(from)] = true
		reached[reachedName(to)] = true
	}
	if edges == 0 {
		t.Fatalf("go build in %s printed no dependency edges", dir)
	}
}

// closureSuffix matches the linker's names for closures, go and defer
// wrappers, and method values inside a function.
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?[0-9]+|-fm)+$`)

// reachedName maps a linker symbol to the name of the function it
// belongs to: "p.(*T[go.shape.int]).M.func1 <UsedInIface>" becomes
// "p.(*T).M".
func reachedName(sym string) string {
	sym, _, _ = strings.Cut(strings.TrimSpace(sym), " <")
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return closureSuffix.ReplaceAllString(b.String(), "")
}

// linkerNames gives fn's linker names, the pointer-receiver form first
// for a method, and its receiver's type name ("" for a function).
func linkerNames(importPath string, fn *ast.FuncDecl) ([]string, string) {
	if fn.Recv == nil {
		return []string{importPath + "." + fn.Name.Name}, ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	return []string{
		importPath + ".(*" + recv + ")." + fn.Name.Name,
		importPath + "." + recv + "." + fn.Name.Name,
	}, recv
}

// aliasedTypes lists, as "importpath.Type", the types the root package
// re-exports by alias: their exported methods are public API.
func aliasedTypes(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	aliased := make(map[string]bool)
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		imports := make(map[string]string)
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			imports[filepath.Base(path)] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Assign.IsValid() {
				return true
			}
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok {
					aliased[imports[pkg.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return aliased
}
