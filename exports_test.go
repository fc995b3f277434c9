package anycastctx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported identifiers that may lack a non-test
// reference, each with the reason it stays. Keys are "<pkg>.<Name>" or
// "<pkg>.<Type>.<Method>", with <pkg> the import path.
// An entry whose identifier is referenced after all, or no longer exists,
// fails the test too, so the list cannot go stale.
var exportAllowlist = map[string]string{
	"anycastctx/internal/faults.Mangler.Fates":   "the root fault e2e test rebuilds the expected capture from the recorded fates",
	"anycastctx/internal/pcapio.Writer.Flush":    "durability: callers that keep a writer open flush without closing it",
	"anycastctx/internal/par.WorkerPanic.Unwrap": "errors.Is and errors.As reach the recovered panic value through it",
}

// configFieldAllowlist names exported fields of Config types that only
// tests write, each with the reason it stays a field. Keys are
// "<pkg>.<Type>.<Field>", with <pkg> the import path. As with
// exportAllowlist, an entry whose field is written outside tests after
// all, or no longer exists, fails the test.
var configFieldAllowlist = map[string]string{
	"anycastctx/internal/topology.Config.NumTier1":                 "package tests build small graphs with 3 to 12 tier-1s",
	"anycastctx/internal/dnssim.ClientConfig.QueriesPerUserPerDay": "resolver tests set the per-user query rate their expectations assume",
	"anycastctx/internal/dnssim.ResolverConfig.TruncationProb":     "TestTCPFallbackCountsAndCosts uses it to force the TCP path",
	"anycastctx/internal/ditl.Config.SecondaryShareMax":            "TestStoreCheckerFiresOnConfigDrift uses it to inject drift",
}

// listedPackage is the subset of `go list -json` output the sweep reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// goList lists the packages of the module rooted at dir with their
// dependencies, dependencies first, building export data for each.
func goList(t *testing.T, goBin, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command(goBin, "list", "-e", "-json", "-deps", "-export", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// checkedFile is one type-checked non-test source file.
type checkedFile struct {
	file *ast.File
	info *types.Info
}

// TestExportedIdentifiersHaveCallers fails when an exported package-level
// func, method, type, var or const of the root package or of a package
// under internal/ has no reference from any non-test file of the repo.
// Files in cmd/, examples/ and the bench module count as callers. A
// method that satisfies some interface is exempt (it may be called only
// through that interface), as is anything in exportAllowlist.
//
// The same sweep fails when an exported field of a struct type named
// Config or *Config is never written by a non-test file: a field that
// only ever holds its default is a constant. A write is a composite-literal
// key or an assignment target; writes inside withDefaults or
// DefaultConfig do not count. configFieldAllowlist names the exceptions.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	listed := goList(t, goBin, ".")
	listed = append(listed, goList(t, goBin, "bench")...)

	fset := token.NewFileSet()
	exportFile := map[string]string{}
	for _, p := range listed {
		if p.Standard {
			exportFile[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})

	var files []checkedFile
	var swept []*types.Package
	for _, p := range listed {
		if p.Standard || checked[p.ImportPath] != nil || p.Module == nil {
			continue
		}
		var astFiles []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			astFiles = append(astFiles, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, astFiles, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, f := range astFiles {
			files = append(files, checkedFile{f, info})
		}
		if p.ImportPath == "anycastctx" || strings.HasPrefix(p.ImportPath, "anycastctx/internal/") {
			swept = append(swept, pkg)
		}
	}

	used := map[types.Object]bool{}
	for _, cf := range files {
		markUses(cf, used)
	}
	ifaces := interfacesByMethod(checked, files)

	var missing []string
	allowed := map[string]bool{}
	report := func(key string, obj types.Object) {
		if used[obj] {
			return
		}
		if _, ok := exportAllowlist[key]; ok {
			allowed[key] = true
			return
		}
		missing = append(missing, fmt.Sprintf("%s: %s", fset.Position(obj.Pos()), key))
	}
	for _, pkg := range swept {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(pkg.Path()+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !satisfiesInterface(named, m.Name(), ifaces) {
					report(pkg.Path()+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported but never referenced outside tests: %s", m)
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("stale exportAllowlist entry %s: it is referenced or no longer exists", key)
		}
	}
	checkConfigFieldsWritten(t, fset, files, swept)
}

// checkConfigFieldsWritten applies the Config-field rule of
// TestExportedIdentifiersHaveCallers to the swept packages.
func checkConfigFieldsWritten(t *testing.T, fset *token.FileSet, files []checkedFile, swept []*types.Package) {
	t.Helper()
	written := map[types.Object]bool{}
	for _, cf := range files {
		markWrites(cf, written)
	}
	var unwritten []string
	allowed := map[string]bool{}
	for _, pkg := range swept {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || written[f] {
					continue
				}
				key := pkg.Path() + "." + name + "." + f.Name()
				if _, ok := configFieldAllowlist[key]; ok {
					allowed[key] = true
					continue
				}
				unwritten = append(unwritten, fmt.Sprintf("%s: %s", fset.Position(f.Pos()), key))
			}
		}
	}
	sort.Strings(unwritten)
	for _, u := range unwritten {
		t.Errorf("config field never set outside tests and defaults, so make it a constant: %s", u)
	}
	for key := range configFieldAllowlist {
		if !allowed[key] {
			t.Errorf("stale configFieldAllowlist entry %s: it is written outside tests or no longer exists", key)
		}
	}
}

// markWrites records every struct field a file writes, as a
// composite-literal key or an assignment target, outside functions named
// withDefaults or DefaultConfig.
func markWrites(cf checkedFile, written map[types.Object]bool) {
	field := func(id *ast.Ident) {
		if v, ok := cf.info.Uses[id].(*types.Var); ok && v.IsField() {
			written[v] = true
		}
	}
	for _, decl := range cf.file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && (fd.Name.Name == "withDefaults" || fd.Name.Name == "DefaultConfig") {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					field(id)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						field(sel.Sel)
					}
				}
			}
			return true
		})
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// markUses records every object a file refers to, except references a
// declaration makes to itself: a recursive call, a self-referential type,
// or a method naming its own receiver type.
func markUses(cf checkedFile, used map[types.Object]bool) {
	mark := func(n ast.Node, self ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := cf.info.Uses[id]
			if obj == nil {
				return true
			}
			obj = origin(obj)
			for _, s := range self {
				if obj == s {
					return true
				}
			}
			used[obj] = true
			return true
		})
	}
	for _, decl := range cf.file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			self := []types.Object{cf.info.Defs[d.Name]}
			if d.Recv != nil && len(d.Recv.List) == 1 {
				self = append(self, receiverType(cf.info, d.Recv.List[0].Type))
			}
			mark(d.Type, self...)
			if d.Body != nil {
				mark(d.Body, self...)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					mark(ts, cf.info.Defs[ts.Name])
				} else {
					mark(spec)
				}
			}
		}
	}
}

// receiverType resolves a method receiver expression (T, *T, T[P]) to the
// receiver's type name.
func receiverType(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return info.Uses[e]
		default:
			return nil
		}
	}
}

// origin maps an instantiated generic func or method to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// interfacesByMethod indexes every interface the program can see — named
// interfaces of every loaded package, the interface types its files
// spell out, and error — by method name.
func interfacesByMethod(pkgs map[string]*types.Package, files []checkedFile) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	for _, cf := range files {
		for _, tv := range cf.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether T or *T implements some known
// interface that has a method called name.
func satisfiesInterface(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces[name] {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
