package repro

// TestNothingLivesOnlyForTests holds non-test code to what some binary runs.
// It type-checks every non-test package of this module and of the nested
// benchmark module (cmd/cxrpq-bench), links each top-level func, method,
// type, var and const to the ones it names, and walks the links from the
// roots: every main and init, every package-level var and const (their
// initialisers run), and the allow-list below. A method also counts as
// reached when its receiver type is reached and implements an interface
// with a method of that name, one that is reached in the module or one of
// the standard library's in stdlibInterfaces: a call through an interface
// names only the interface's method.
//
// The test fails on a declaration of this module that nothing reaches, and
// on a stale allow-list entry: one naming nothing, one a production binary
// reaches, or a benchmark-only one the benchmark no longer reaches.
//
//	go test -run NothingLivesOnlyForTests .

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
	"runtime"
	"sort"
	"strings"
	"testing"
)

// An allowed declaration is kept although no production binary runs it.
type allowKind string

const (
	// A paper statement, or the reference a differential test compares the
	// production path with.
	allowPaper allowKind = "paper"
	// Vocabulary the tests of several packages share.
	allowVocab allowKind = "vocab"
	// Reached only from the benchmark's in-process replay
	// (cmd/cxrpq-bench/layers.go); it goes with the replay.
	allowBench allowKind = "bench"
)

// reachAllow names each declaration by its package path inside the module,
// then receiver type and name: "internal/graph.DB.PathWordsBetween".
var reachAllow = []struct {
	name string
	kind allowKind
	why  string
}{
	{"internal/automata.Equivalent", allowPaper, "language equality, which the compiler property tests hold compiled automata to"},
	{"internal/automata.NFA.EnumerateWords", allowPaper, "the bounded word enumeration the property tests read languages by"},
	{"internal/cxrpq.EvalSimple", allowPaper, "Lemma 3, the simple-to-ECRPQ^er translation, a differential reference"},
	{"internal/oracle.EvalECRPQ", allowPaper, "the brute-force ECRPQ oracle the engines are held to"},
	{"internal/separations.DescribeFigure5", allowPaper, "the inclusion diagram of Figure 5"},
	{"internal/xregex.Match", allowPaper, "the literal xregex semantics by backtracking, a differential reference"},
	{"internal/xregex.MatchBool", allowPaper, "the literal xregex semantics by backtracking, a differential reference"},
	{"internal/xregex.ValidateRefWord", allowPaper, "ref-words (§3), which the property tests generate and dereference"},
	{"internal/xregex.Deref", allowPaper, "ref-words (§3), which the property tests generate and dereference"},
	{"internal/xregex.EnumerateRefWords", allowPaper, "ref-words (§3), which the property tests generate and dereference"},

	{"internal/crpq.MustParse", allowVocab, "test fixtures of crpq and the root benchmarks"},
	{"internal/cxrpq.MustPrepare", allowVocab, "test fixtures of cxrpq, ecrpq and the root benchmarks"},
	{"internal/ecrpq.MustParseQuery", allowVocab, "test fixtures of ecrpq, cxrpq, pattern and the root benchmarks"},
	{"internal/xregex.MustCompile", allowVocab, "test fixtures of xregex, engine and the root benchmarks"},
	{"internal/ecrpq.AtomStore.Verdicts", allowVocab, "the stored verdicts the ecrpq and cxrpq store tests compare"},
	{"internal/graph.DB.In", allowVocab, "the incoming edges the engine tests' reference search walks"},
	{"internal/pattern.TupleSet.Contains", allowVocab, "answer membership, asserted by the tests of most packages"},
	{"internal/workload.RandomQuery", allowVocab, "the random query generator of the differential suites"},
	{"internal/workload.MutationStream", allowVocab, "the random delta generator of the cxrpq store tests"},
	{"internal/workload.GMark", allowVocab, "the gMark-style graph generator of the engine, ecrpq and cxrpq tests"},

	{"internal/cxrpq.Cursor.Fetch", allowBench, "layers.go drains cursors by tuples"},
	{"internal/cxrpq.MatchTuple", allowBench, "Theorem 4's tuple match, which oracle.EvalCXRPQ runs"},
	{"internal/cxrpq.MatchTupleBool", allowBench, "Theorem 4's tuple match, which oracle.EvalCXRPQ runs"},
	{"internal/cxrpq.Row", allowBench, "the tuples Cursor.Fetch returns"},
	{"internal/cxrpq.Session.Fork", allowBench, "layers.go replays a publish"},
	{"internal/cxrpq.SimpleToECRPQer", allowBench, "layers.go times the Lemma 3 translation"},
	{"internal/cxrpq.rowsOf", allowBench, "the tuples Cursor.Fetch returns"},
	{"internal/ecrpq.Check", allowBench, "layers.go times a tuple check"},
	{"internal/ecrpq.EvalUnionBool", allowBench, "layers.go times a Boolean union"},
	{"internal/ecrpq.JoinRelations", allowBench, "layers.go times the join over built relations, the relation format only the replay keeps"},
	{"internal/ecrpq.PlanJoin", allowBench, "layers.go orders that join, the relation format only the replay keeps"},
	{"internal/ecrpq.RelationFor", allowBench, "layers.go times a relation build, the relation format only the replay keeps"},
	{"internal/engine.ReachBatch", allowBench, "layers.go times the batched reachability kernel"},
	{"internal/engine.Shards", allowBench, "layers.go partitions the graph for the batched kernel"},
	{"internal/graph.DB.Partition", allowBench, "layers.go partitions the graph for the batched kernel"},
	{"internal/graph.Partition", allowBench, "layers.go partitions the graph for the batched kernel"},
	{"internal/graph.DB.PathWordsBetween", allowBench, "the path words the oracles enumerate"},
	{"internal/oracle.EvalCXRPQ", allowBench, "the brute-force CXRPQ oracle of the benchmark's self-check; a paper reference once the replay goes"},
	{"internal/pattern.TupleSet.All", allowBench, "layers.go digests answers"},
}

// stdlibInterfaces are the standard library's interfaces through which the
// standard library calls this module's methods: fmt calls String, errors.As
// calls Unwrap, flag.Var's flag.Value calls Set, and an io.Writer handed to
// the standard library is written through Write. A type that comes to
// implement another one adds it here.
const stdlibInterfaces = `package stdlib

import (
	"flag"
	"fmt"
	"io"
)

type (
	_ error
	_ fmt.Stringer
	_ interface{ Unwrap() error }
	_ flag.Value
	_ io.Writer
)
`

const (
	rootModule  = "cxrpq"
	benchModule = "cxrpq/cmd/cxrpq-bench"
)

type listedPkg struct {
	ImportPath string
	Name       string
	GoFiles    []string
	Tests      []string `json:"TestGoFiles"`
	XTests     []string `json:"XTestGoFiles"`
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// goList lists dir's packages and their dependencies in dependency order,
// with the export data of each.
func goList(t *testing.T, dir string, extra ...string) []listedPkg {
	t.Helper()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		gobin = "go"
	}
	cmd := exec.Command(gobin, append([]string{"list", "-deps", "-export", "-json", "./..."}, extra...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// A decl is one top-level declaration, or one name of a var or const spec.
type decl struct {
	key   string
	obj   types.Object
	pkg   string // import path
	pos   token.Position
	node  ast.Node
	lines int
	uses  []types.Object
	root  bool // main, init, or a package-level var or const
}

type program struct {
	fset    *token.FileSet
	decls   map[types.Object]*decl
	methods map[*types.TypeName][]*decl // by receiver type
	byKey   map[string]*decl
	stdlib  []iface
	files   []*srcFile // non-test
	tests   []*srcFile // parsed only
}

// A srcFile is a file or a node of one, named relative to the repository root.
type srcFile struct {
	node ast.Node
	name string
	info *types.Info
}

var loaded *program // once per test binary

func loadProgram(t *testing.T) *program {
	t.Helper()
	if loaded != nil {
		return loaded
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	var srcPkgs []listedPkg
	seen := map[string]bool{}
	stdlib, err := parser.ParseFile(fset, "stdlib.go", stdlibInterfaces, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var stdlibPaths []string
	for _, spec := range stdlib.Imports {
		stdlibPaths = append(stdlibPaths, strings.Trim(spec.Path.Value, `"`))
	}
	for _, dir := range []string{".", filepath.Join("cmd", "cxrpq-bench")} {
		for _, p := range goList(t, dir, stdlibPaths...) {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Standard || p.Module == nil || seen[p.ImportPath] {
				continue
			}
			if p.Module.Path != rootModule && p.Module.Path != benchModule {
				t.Fatalf("package %s of module %s: the module has no dependencies", p.ImportPath, p.Module.Path)
			}
			seen[p.ImportPath] = true
			srcPkgs = append(srcPkgs, p)
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
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

	prog := &program{
		fset:    fset,
		decls:   map[types.Object]*decl{},
		methods: map[*types.TypeName][]*decl{},
		byKey:   map[string]*decl{},
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: gc}).Check("stdlib", fset, []*ast.File{stdlib}, info); err != nil {
		t.Fatalf("type-checking the standard library's interfaces: %v", err)
	}
	ast.Inspect(stdlib, func(n ast.Node) bool {
		if s, ok := n.(*ast.TypeSpec); ok {
			prog.stdlib = append(prog.stdlib, iface{it: info.TypeOf(s.Type).Underlying().(*types.Interface)})
		}
		return true
	})
	for _, p := range srcPkgs {
		var files []*ast.File
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, rootModule), "/")
		for i, name := range append(append(p.GoFiles, p.Tests...), p.XTests...) {
			name = filepath.Join(rel, name)
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if i >= len(p.GoFiles) {
				prog.tests = append(prog.tests, &srcFile{f, name, &types.Info{}})
				continue
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, f := range files {
			prog.files = append(prog.files, &srcFile{f, fset.Position(f.Pos()).Filename, info})
			for _, d := range f.Decls {
				prog.addDecls(fset, info, p.ImportPath, rel, p.Name == "main", d)
			}
		}
	}
	loaded = prog
	return prog
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated function or field back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (prog *program) addDecls(fset *token.FileSet, info *types.Info, path, rel string, isMain bool, d ast.Decl) {
	add := func(id *ast.Ident, doc *ast.CommentGroup, node ast.Node, root bool) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" && !root {
			return
		}
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		dl := &decl{
			obj:   obj,
			pkg:   path,
			pos:   fset.Position(node.Pos()),
			node:  node,
			lines: fset.Position(node.End()).Line - fset.Position(start).Line + 1,
			root:  root,
		}
		name := id.Name
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				tn := rt.(*types.Named).Origin().Obj()
				name = tn.Name() + "." + name
				prog.methods[tn] = append(prog.methods[tn], dl)
			}
		}
		dl.key = rel + "." + name
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if used := info.Uses[id]; used != nil {
					dl.uses = append(dl.uses, origin(used))
				}
			}
			return true
		})
		if id.Name == "_" {
			dl.key += fmt.Sprintf("@%d", dl.pos.Line)
		}
		prog.decls[obj] = dl
		prog.byKey[dl.key] = dl
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		root := d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main")
		add(d.Name, d.Doc, d, root)
	case *ast.GenDecl:
		// A spec of a parenthesised group spans its own lines.
		for _, s := range d.Specs {
			doc, node := d.Doc, ast.Node(d)
			switch s := s.(type) {
			case *ast.TypeSpec:
				if d.Lparen.IsValid() {
					doc, node = s.Doc, s
				}
				add(s.Name, doc, node, false)
			case *ast.ValueSpec:
				if d.Lparen.IsValid() {
					doc, node = s.Doc, s
				}
				for _, id := range s.Names {
					add(id, doc, node, true)
				}
			}
		}
	}
}

// An iface is an interface a call may go through; a generic one is matched
// by method name alone.
type iface struct {
	it      *types.Interface
	generic bool
}

// reach returns the declarations reached from roots.
func (prog *program) reach(roots []*decl) map[*decl]bool {
	reached := map[*decl]bool{}
	ifaces := append([]iface{}, prog.stdlib...)
	var work []*decl
	mark := func(d *decl) {
		if d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	for _, d := range roots {
		mark(d)
	}
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range d.uses {
				mark(prog.decls[u])
			}
			if tn, ok := d.obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface{it, isGeneric(tn)})
				}
			}
		}
		// The methods of a reached type that a call through a reached
		// interface may land in.
		for tn, ms := range prog.methods {
			if !reached[prog.decls[tn]] {
				continue
			}
			for _, f := range ifaces {
				if !f.generic && !isGeneric(tn) &&
					!types.Implements(tn.Type(), f.it) && !types.Implements(types.NewPointer(tn.Type()), f.it) {
					continue
				}
				for _, m := range ms {
					for i := 0; i < f.it.NumMethods(); i++ {
						if f.it.Method(i).Name() == m.obj.Name() {
							mark(m)
						}
					}
				}
			}
		}
	}
	return reached
}

func isGeneric(tn *types.TypeName) bool {
	n, ok := tn.Type().(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

func TestNothingLivesOnlyForTests(t *testing.T) {
	prog := loadProgram(t)

	var prodRoots, benchRoots, allowRoots []*decl
	for _, d := range prog.decls {
		if !d.root {
			continue
		}
		if strings.HasPrefix(d.pkg, benchModule) {
			benchRoots = append(benchRoots, d)
		} else {
			prodRoots = append(prodRoots, d)
		}
	}
	kinds := map[*decl]allowKind{}
	for _, a := range reachAllow {
		d := prog.byKey[a.name]
		if d == nil {
			t.Errorf("allow-list entry %s names no declaration", a.name)
			continue
		}
		if a.why == "" {
			t.Errorf("allow-list entry %s gives no reason", a.name)
		}
		if _, twice := kinds[d]; twice {
			t.Errorf("allow-list entry %s is listed twice", a.name)
		}
		kinds[d] = a.kind
		allowRoots = append(allowRoots, d)
	}
	prod := prog.reach(prodRoots)
	withBench := prog.reach(append(append([]*decl{}, prodRoots...), benchRoots...))
	all := prog.reach(append(append([]*decl{}, prodRoots...), allowRoots...))

	for d, kind := range kinds {
		switch {
		case prod[d]:
			t.Errorf("allow-list entry %s is stale: a binary reaches it", d.key)
		case kind == allowBench && !withBench[d]:
			t.Errorf("allow-list entry %s is stale: the benchmark no longer reaches it", d.key)
		case kind != allowBench && withBench[d]:
			t.Errorf("allow-list entry %s is reached from the benchmark only: its kind is %q", d.key, allowBench)
		}
	}

	var missed []*decl
	for _, d := range prog.decls {
		if !all[d] && !strings.HasPrefix(d.pkg, benchModule) {
			missed = append(missed, d)
		}
	}
	sort.Slice(missed, func(i, j int) bool {
		if missed[i].pos.Filename != missed[j].pos.Filename {
			return missed[i].pos.Filename < missed[j].pos.Filename
		}
		return missed[i].pos.Line < missed[j].pos.Line
	})
	lines := 0
	for _, d := range missed {
		lines += d.lines
		benchOnly := ""
		if withBench[d] {
			benchOnly = " (reached from cmd/cxrpq-bench only)"
		}
		t.Errorf("%s:%d: %s (%d lines) is reached by no binary%s", d.pos.Filename, d.pos.Line, d.key, d.lines, benchOnly)
	}
	if len(missed) > 0 {
		t.Errorf("%d declarations (%d lines) no binary reaches: delete each, move it into its package's export_test.go, or name it on reachAllow with a reason", len(missed), lines)
	}
}
