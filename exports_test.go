package pathrank_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported internal functions and methods that no
// non-test file calls but that stay, each with its reason.
var exportAllowlist = map[string]string{
	"Haversine":      "geo: the great-circle reference TestDistanceMatchesHaversineNearby checks geo.Distance against",
	"Jaccard":        "pathsim: the unweighted reference WeightedJaccard is checked against on uniform edge lengths",
	"Cosine":         "node2vec: the similarity the embedding-quality tests measure trained vectors with",
	"Unwrap":         "pathrank.RankError: called by errors.Is and errors.As, never by name",
	"Disable":        "fault: other packages' tests switch an installed plan off",
	"Enabled":        "fault: other packages' tests assert a plan is installed",
	"Fired":          "fault: other packages' tests assert an injected fault fired",
	"Hits":           "fault: other packages' tests count how often a site was reached",
	"PoisonArtifact": "chaos: other packages' tests corrupt an artifact with it",
	"NewWorkspace":   "spath: other packages' tests drive searches on a private workspace",
	"FindEdge":       "roadnet: other packages' tests look up an edge by its endpoints",
	"Pin":            "allocpin: the allocation pins of other packages' tests",
	"Match":          "traj.Matcher: the facade's context-free matching call (pathrank.Matcher), for library users",
}

// TestInternalExportsHaveCallers is a tripwire for dead code: the name of
// every exported top-level function or method declared under internal/
// must appear, outside its own declaration, in a non-test file of the
// module or of benchmark/. The check is by name only, so a reference to a
// different declaration with the same name satisfies it; it catches
// capabilities that lost their last caller, not every unused one.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ file, name string }
	var decls []decl
	refs := map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					decls = append(decls, decl{path, fn.Name.Name})
					declared[fn.Name] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}

	var dead []string
	unused := map[string]bool{}
	for _, d := range decls {
		if refs[d.name] {
			continue
		}
		if _, ok := exportAllowlist[d.name]; ok {
			unused[d.name] = true
			continue
		}
		dead = append(dead, d.file+": "+d.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no caller outside tests; delete it", d)
	}
	// An allowlist entry that now has a caller, or names nothing, is stale.
	for name := range exportAllowlist {
		if !unused[name] {
			t.Errorf("allowlisted %s is no longer an uncalled internal export; drop it from exportAllowlist", name)
		}
	}
}

// configStructs are the structs whose exported fields are the product's
// settings, by package directory and type name.
var configStructs = []struct{ dir, name string }{
	{"internal/serve", "Config"},
	{"internal/router", "Config"},
	{"internal/stream", "Config"},
	{"internal/wal", "Options"},
	{"internal/pathrank", "TrainConfig"},
	{"internal/dataset", "Config"},
}

// configAllowlist names settings (package.Type.Field) that no code outside
// their package sets but that stay, each with its reason.
var configAllowlist = map[string]string{
	"serve.Config.CanaryTimeout": "its only caller is the pathrank-train test that forces a canary refusal by timing the gate out",
}

// TestConfigFieldsHaveCallers is TestInternalExportsHaveCallers for
// settings: every exported field of a struct in configStructs must be set
// by non-test code outside its own package (cmd/, another internal
// package, or benchmark/), as a key of the struct's composite literal or
// by assignment to a variable of the struct's type. A field set only to a
// call with no arguments does not count: such a value is built the same
// way every time, so it chooses nothing the package could not build
// itself when the field is left zero. The check is syntactic: a variable
// counts by its name within the file that declares it.
func TestConfigFieldsHaveCallers(t *testing.T) {
	fields := map[string][]string{} // "serve.Config" -> exported field names
	typeOf := map[string]string{}   // import path -> "serve.Config"
	dirOf := map[string]string{}    // "serve.Config" -> package dir
	fset := token.NewFileSet()
	for _, c := range configStructs {
		pkgs, err := parser.ParseDir(fset, c.dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		key := filepath.Base(c.dir) + "." + c.name
		typeOf["pathrank/"+c.dir], dirOf[key] = key, c.dir
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSpec)
					if !ok || ts.Name.Name != c.name {
						return true
					}
					for _, fl := range ts.Type.(*ast.StructType).Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields[key] = append(fields[key], id.Name)
							}
						}
					}
					return false
				})
			}
		}
		if len(fields[key]) == 0 {
			t.Fatalf("found no exported fields of %s in %s", key, c.dir)
		}
	}

	set := map[string]bool{} // "serve.Config.CacheSize"
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		local := map[string]string{} // import name -> "serve.Config"
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			key, ok := typeOf[p]
			if !ok || dirOf[key] == dir {
				continue
			}
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = key
		}
		// configType names the settings struct a type denotes, litType the
		// one a composite literal (or its address) builds.
		configType := func(e ast.Expr) string {
			if st, ok := e.(*ast.StarExpr); ok {
				e = st.X
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok || !strings.HasSuffix(local[x.Name], "."+sel.Sel.Name) {
				return ""
			}
			return local[x.Name]
		}
		litType := func(e ast.Expr) string {
			if u, ok := e.(*ast.UnaryExpr); ok {
				e = u.X
			}
			if lit, ok := e.(*ast.CompositeLit); ok {
				return configType(lit.Type)
			}
			return ""
		}
		chooses := func(v ast.Expr) bool {
			call, ok := v.(*ast.CallExpr)
			return !ok || len(call.Args) > 0
		}
		// Declarations precede their uses in source order, which is the
		// order Inspect visits them in.
		vars := map[string]string{} // variable name -> "serve.Config"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					if key := configType(n.Type); key != "" {
						vars[id.Name] = key
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if key := configType(n.Type); key != "" {
						vars[id.Name] = key
					} else if i < len(n.Values) && litType(n.Values[i]) != "" {
						vars[id.Name] = litType(n.Values[i])
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if len(n.Lhs) != len(n.Rhs) {
						break
					}
					switch lhs := lhs.(type) {
					case *ast.Ident:
						if n.Tok == token.DEFINE && litType(n.Rhs[i]) != "" {
							vars[lhs.Name] = litType(n.Rhs[i])
						}
					case *ast.SelectorExpr:
						if x, ok := lhs.X.(*ast.Ident); ok && vars[x.Name] != "" && chooses(n.Rhs[i]) {
							set[vars[x.Name]+"."+lhs.Sel.Name] = true
						}
					}
				}
			case *ast.CompositeLit:
				if key := configType(n.Type); key != "" {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok && chooses(kv.Value) {
							set[key+"."+kv.Key.(*ast.Ident).Name] = true
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	total, allowed := 0, 0
	for _, c := range configStructs {
		key := filepath.Base(c.dir) + "." + c.name
		for _, name := range fields[key] {
			total++
			field := key + "." + name
			_, ok := configAllowlist[field]
			switch {
			case ok && set[field]:
				t.Errorf("allowlisted %s is now set outside its package; drop it from configAllowlist", field)
			case ok:
				allowed++
			case !set[field]:
				t.Errorf("setting %s is set by no non-test code outside its package; delete it", field)
			}
		}
	}
	if allowed != len(configAllowlist) {
		t.Errorf("configAllowlist names %d settings, %d of them exist", len(configAllowlist), allowed)
	}
	t.Logf("%d settable values in %d settings structs, %d of them allowlisted", total, len(configStructs), allowed)
}
