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
