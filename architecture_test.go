package repro

// TestArchitecture holds the code to the shape the paper's reductions gave it,
// one row per rule, over the program TestNothingLivesOnlyForTests type-checks:
// objects, references and syntax, not text. A row naming a declaration, file
// or package that no longer exists fails as stale.

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var archRules = []struct {
	name, pr string
	check    func(a arch)
}{
	// Behaviour is configured by values (ecrpq.Options, a cxrpq.Request).
	{"no process-wide switches", "PR 21", func(a arch) {
		setter := regexp.MustCompile(`^Set[A-Z]`)
		for _, d := range a.decls {
			if fn, ok := d.obj.(*types.Func); ok && fn.Signature().Recv() == nil && setter.MatchString(fn.Name()) {
				a.t.Errorf("%s: process-wide setter %s", d.pos, d.key)
			}
		}
	}},
	// Caches and counters belong to a database's atom store or to a value the
	// caller holds; the root module's package-level vars are pools of scratch,
	// error sentinels and immutable tables.
	{"no process-wide mutable state", "PR 36", func(a arch) {
		allowed := strings.Fields(`internal/engine.scalarPool internal/engine.batchPool internal/automata.keyBuf cmd/cxrpq-serve.bodies
			internal/engine.ErrCanceled internal/graph.ErrWALCorrupt internal/cxrpq.onlyEps internal/exp.Registry internal/workload.finXBodies
			internal/workload.finYBodies internal/workload.finTail1 internal/workload.finMids internal/workload.finTails internal/workload.genXBodies
			internal/workload.genYBodies internal/workload.genTail1 internal/workload.genMids internal/workload.genTails internal/workload.outHeads`)
		for _, d := range a.decls {
			if _, ok := d.obj.(*types.Var); ok && !strings.HasPrefix(d.pkg, benchModule) && !slices.Contains(allowed, d.key) {
				a.t.Errorf("%s: package-level variable %s", d.pos, d.key)
			}
		}
		a.in(allowed...)
	}},
	// Atom facts are resolved by the database's atom store alone; the kernel
	// is called by it, its delta pass and the replay's relation builder.
	{"one atom resolver", "PR 23, PR 28", func(a arch) {
		store := []string{"internal/engine/", "internal/ecrpq/atomstore.go", "internal/ecrpq/delta.go", "internal/ecrpq/atomrel.go"}
		a.only(a.files, "internal/engine.Support", store[:2]...)
		a.only(a.files, "internal/engine.Reach", store...)
		a.only(a.files, "internal/engine.ReachBatchEx", store...)
		a.only(a.files, "internal/ecrpq.atomFacts", store[1:3]...)
		a.names(a.files, "^(BuildRelation|SupportRelation)$")
	}},
	// An atom's pairs are stored one way, in the atom store's row tables; the
	// relation format is left to the benchmark replay's shims (atomrel.go).
	// An unranked probe reads that table in place, complete or not: no second
	// path for complete tables (adopt) and no row header per node (probeRow).
	// The memo holds rows of its own only ranked, with costs, and rowTable's
	// methods alone index a span cell, which put publishes atomically.
	{"one stored form of an atom's pairs", "PR 45", func(a arch) {
		in, _ := a.in("internal/cxrpq/", "internal/ecrpq/atomstore.go", "internal/ecrpq/delta.go", "internal/ecrpq/anyk.go", "internal/ecrpq/evaluator.go", "internal/ecrpq/frontier.go"), a.obj("internal/ecrpq.EdgeRel")
		a.names(in, "^EdgeRel$")
		a.typed(in, `\bcxrpq/internal/ecrpq\.EdgeRel\b`)
		ecrpq := a.in("internal/ecrpq/")
		a.names(ecrpq, "^(adopt|probeRow)$")
		if s := types.TypeString(a.obj("internal/ecrpq.probeMemo").Type().Underlying(), nil); s != "struct{tab cxrpq/internal/ecrpq.rowTable; sup []uint64; at []int32; nodes [][]int; costs [][]int32}" {
			a.t.Errorf("the probe memo holds more than a view of the store's table and its ranked rows: %s", s)
		}
		own := map[types.Object]bool{a.field("internal/ecrpq.probeMemo", "at"): true, a.field("internal/ecrpq.probeMemo", "nodes"): true, a.field("internal/ecrpq.probeMemo", "costs"): true}
		ranked := a.in("internal/ecrpq.probeMemo", "internal/ecrpq.probeMemo.get", "internal/ecrpq.probeAtom.costed")
		table, _ := a.obj("internal/ecrpq.rowTable").(*types.TypeName)
		var methods []*srcFile
		for _, d := range a.methods[table] {
			methods = append(methods, &srcFile{node: d.node})
		}
		span := a.field("internal/ecrpq.rowTable", "span")
		a.forbid(ecrpq, func(f *srcFile, n ast.Node, o types.Object) bool {
			if own[o] {
				return !within(n, ranked)
			}
			ix, _ := n.(*ast.IndexExpr)
			if ix == nil {
				return false
			}
			sel, _ := ix.X.(*ast.SelectorExpr)
			return sel != nil && f.info.ObjectOf(sel.Sel) == span && !within(n, methods)
		})
	}},
	// AtomStore.Atom alone prints a label and keeps its atom (Query.Validate's
	// error message aside); the bounded engine prints one, its candidate memo's key.
	{"one atom identity", "PR 35, PR 36", func(a arch) {
		a.names(a.files, "^(compiledMap|compiledCap|compiledFor|compiledEntry|atomKey|sharedMatches|matchCache|SubsetFor|MatchCacheInfo|MatchCacheStats|defaultMatchCacheCap|kstat|ReachBatchStats|ResetReachBatchStats)$")
		a.only(a.in("internal/ecrpq/", "internal/cxrpq/bounded.go"), "internal/xregex.String", "internal/ecrpq.AtomStore.Atom", "internal/ecrpq.Query.Validate", "internal/cxrpq.boundedEngine.candidates")
		if d, str := a.byKey["internal/cxrpq.boundedEngine.candidates"], a.obj("internal/xregex.String"); d != nil && len(slices.DeleteFunc(slices.Clone(d.uses), func(o types.Object) bool { return o != str })) > 1 {
			a.t.Error("the bounded engine prints a second label")
		}
	}},
	// The union's set drivers, the relation join and the bounded engine hash no row.
	{"answers are settled, not hashed", "PR 39", func(a arch) {
		a.names(a.in("internal/ecrpq/eval.go", "internal/ecrpq/atomrel.go", "internal/cxrpq/bounded.go", "internal/ecrpq.EvalUnionWith", "internal/ecrpq.SettleUnion"), "^(AddRow|AddAll)$")
	}},
	// Both unions, a vstar-free query's members and a bounded run's mappings,
	// are walked by the drivers of ecrpq/union.go: internal/cxrpq only sets a
	// leaf's atoms, and internal/crpq merges no member answers itself.
	{"one member loop", "PR 48, PR 49, PR 50", func(a arch) {
		for _, m := range []string{"join", "streamSeeded", "witness"} {
			a.only(a.files, "internal/ecrpq.Leaf."+m, "internal/ecrpq/union.go")
		}
		a.only(a.files, "internal/cxrpq.boundedEngine.newState", "internal/cxrpq/bounded.go")
		witness, set, cx := a.obj("internal/ecrpq.FindWitness"), a.obj("internal/ecrpq.Leaf.Set"), a.in("internal/cxrpq/")
		merge, adds := a.obj("internal/pattern.Merge"), regexp.MustCompile(`^\(.*\)\.(AddAll|AddRow|Append|Insert)$`)
		a.names(cx, "^(StreamSeeded|AddLeaf)$")
		a.forbid(cx, func(_ *srcFile, _ ast.Node, o types.Object) bool {
			return o == witness || o != set && strings.Contains(fullName(o), "/ecrpq.Leaf).")
		})
		a.forbid(a.in("internal/crpq/"), func(_ *srcFile, _ ast.Node, o types.Object) bool { return o == merge || adds.MatchString(fullName(o)) })
	}},
	// A Plan decodes member i when a driver asks (Plan.member): nothing in
	// internal/cxrpq holds members, translations or multiplied-out branches.
	{"a plan keeps no members", "PR 50, PR 54", func(a arch) {
		cx, _ := a.in("internal/cxrpq/"), a.obj("internal/cxrpq.member")
		a.names(cx, "^(vsfComboCap|overCap|sourceCols|expandBranches)$")
		a.typed(cx, `\[\]cxrpq/internal/cxrpq\.member\b|\[\]\[\]cxrpq/internal/xregex\.Node\b`)
		a.typed(a.in("internal/cxrpq.Plan"), `^(\[\d*\]|map\[[^\]]*\]|chan )+.*[^a-z0-9]`) // a collection of other than basic values
	}},
	// Plan.member is the one caller of xregex.Branch outside internal/xregex,
	// and a witness is read off ecrpq/group.go's product search, in tests too.
	{"one member source, one product search", "PR 22, PR 54", func(a arch) {
		a.only(a.files, "internal/xregex.Branch", "internal/xregex/", "internal/cxrpq.Plan.member")
		if d := a.byKey["internal/cxrpq.Plan.member"]; d == nil || !slices.Contains(d.uses, a.obj("internal/xregex.Branch")) {
			a.t.Error("Plan.member decodes no member with xregex.Branch")
		}
		a.names(append(slices.DeleteFunc(slices.Clone(a.tests), func(f *srcFile) bool { return !strings.HasPrefix(f.name, "internal/") }), a.in("internal/")...), "prodKey|productNodes")
	}},
	// xregex.Walk and MapKids alone know which kinds have children: at most
	// ten type-switch cases list *xregex.Plus, all in the syntax layer.
	{"one traversal", "PR 24", func(a arch) {
		home := a.in("internal/xregex/ast.go", "internal/xregex/classify.go", "internal/xregex/compile.go", "internal/xregex/instantiate.go", "internal/xregex/print.go", "internal/xregex/refword.go", "internal/xregex/simplify.go", "internal/xregex/transform.go")
		plus, arms := types.NewPointer(a.obj("internal/xregex.Plus").Type()), 0
		a.forbid(a.files, func(f *srcFile, n ast.Node, _ types.Object) bool {
			if c, ok := n.(*ast.CaseClause); !ok || !slices.ContainsFunc(c.List, func(e ast.Expr) bool { return types.Identical(f.info.TypeOf(e), plus) }) {
				return false
			}
			arms++
			return arms > 10 || !slices.ContainsFunc(home, func(h *srcFile) bool { return h.name == f.name })
		})
	}},
	// Every join backtracks in ecrpq.JoinOrder's order on an explicit frame
	// stack: no Yannakakis program, join tree, minimization or recursion.
	{"one join", "PR 25, PR 46", func(a arch) {
		a.names(a.files, "^(yannakakis|yanRel|JoinTree|BuildJoinTree|FreeConnex|LangContains|Minimize|Tuning|StrategyOf|bindEach|bindSrc)$")
		a.in("internal/ecrpq.plan", "internal/cxrpq.boundedState")
		rec := regexp.MustCompile(`cxrpq/internal/(ecrpq\.plan\)\.run|cxrpq\.boundedState\)\.rec)$`)
		a.forbid(a.files, func(_ *srcFile, _ ast.Node, o types.Object) bool { return rec.MatchString(fullName(o)) })
	}},
	// The join order is a function of the pattern and the bound variables
	// alone: no estimator, graph statistics or planner package.
	{"no statistics", "PR 30", func(a arch) {
		if _, err := os.Stat("internal/planner"); err == nil || a.obj("internal/graph.DB").Pkg().Scope().Lookup("Stats") != nil {
			a.t.Error("internal/planner or graph.Stats is back")
		}
		a.names(a.files, "^(ShapeOf|EstimateRel)$")
	}},
	// A CXRPQ runs through Session.Do or Session.Stream alone; the ECRPQ
	// engine's entry points and the CRPQ engine's Eval method are its own.
	{"one request path", "PR 26, PR 43", func(a arch) {
		mode := `(Eval|EvalBool|EvalAny|EvalVsf\w*|EvalBounded|EvalBoundedBool|EvalLog\w*|Check\w*|Explain\w*)$`
		fn, method := regexp.MustCompile(`^[^.]+\.`+mode), regexp.MustCompile(`^((internal/cxrpq|cmd/[^.]+)\.\w+\.`+mode+`|internal/cxrpq\.Session\.(Eval|Check|Explain))`)
		a.obj("internal/cxrpq.Session")
		for _, d := range a.decls {
			if _, ok := d.obj.(*types.Func); ok && (fn.MatchString(d.key) && d.pkg != rootModule+"/internal/ecrpq" || method.MatchString(d.key)) {
				a.t.Errorf("%s: a second way to run a query: %s", d.pos, d.key)
			}
		}
	}},
	// A Session is a Plan bound to a database and nothing else: its answers
	// live in the atom store, and the server forks no session on publish.
	{"sessions hold no state", "PR 40", func(a arch) {
		if s := types.TypeString(a.obj("internal/cxrpq.Session").Type().Underlying(), nil); s != "struct{plan *cxrpq/internal/cxrpq.Plan; db *cxrpq/internal/graph.DB}" {
			a.t.Errorf("the Session type holds more than its plan and database: %s", s)
		}
		a.names(a.files, "^resultCap$")
		a.forbid(a.in("cmd/cxrpq-serve/"), func(_ *srcFile, _ ast.Node, o types.Object) bool { return strings.HasSuffix(fullName(o), ".Fork") })
	}},
	// An evaluation runs on its request's goroutine, members and mappings in
	// order; parallelism lives across requests.
	{"one goroutine per request", "PR 47", func(a arch) {
		in := a.in("internal/engine/", "internal/ecrpq/", "internal/cxrpq/")
		a.names(in, "^Fan$")
		a.forbid(in, func(_ *srcFile, n ast.Node, o types.Object) bool {
			return isGo(n) || o != nil && o.Name() == "Fork" && strings.HasPrefix(types.TypeString(o.Type(), nil), "func()")
		})
		a.typed(in, `\bsync\.WaitGroup\b`)
	}},
	// A cursor producer is pulled inside FetchRows on the fetching goroutine:
	// no goroutine or channel in the streaming layer, and no coroutine.
	{"no goroutine in the streaming layer", "PR 34, PR 46", func(a arch) {
		stream := a.in("internal/cxrpq/stream.go")
		a.forbid(stream, func(_ *srcFile, n ast.Node, _ types.Object) bool { _, ch := n.(*ast.ChanType); return ch || isGo(n) })
		a.typed(stream, `\bchan\b`)
		a.forbid(a.in("internal/cxrpq/", "internal/ecrpq/"), func(_ *srcFile, _ ast.Node, o types.Object) bool { return strings.HasPrefix(fullName(o), "iter.Pull") })
	}},
	// A read takes no lock a writer holds and writes nothing: the server
	// calls a database's graph.Store from /update, /stats, startup and
	// shutdown alone, and a parked cursor lives in its token, not the WAL.
	{"reads write no WAL", "ROADMAP item 23", func(a arch) {
		a.obj("internal/graph.Store")
		writer := a.in("cmd/cxrpq-serve.server.handleUpdate", "cmd/cxrpq-serve.server.close", "cmd/cxrpq-serve.server.handleStats", "cmd/cxrpq-serve/main.go")
		a.forbid(a.in("cmd/cxrpq-serve/"), func(_ *srcFile, n ast.Node, o types.Object) bool {
			return strings.HasPrefix(fullName(o), "(*"+rootModule+"/internal/graph.Store).") &&
				!within(n, writer)
		})
		a.names(a.files, "^(AppendSide|SideRecords|recoverCursors|persistCursor)$")
	}},
}

func isGo(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }

// within reports whether n lies inside one of in.
func within(n ast.Node, in []*srcFile) bool {
	return slices.ContainsFunc(in, func(f *srcFile) bool { return f.node.Pos() <= n.Pos() && n.End() <= f.node.End() })
}

// field returns the field name of the struct type key declares, or fails as
// stale and returns one nothing uses.
func (a arch) field(key, name string) types.Object {
	if st, ok := a.obj(key).Type().Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			if st.Field(i).Name() == name {
				return st.Field(i)
			}
		}
	}
	a.t.Errorf("stale: %s has no field %s", key, name)
	return types.NewLabel(token.NoPos, nil, name)
}

func TestArchitecture(t *testing.T) {
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) { r.check(arch{loadProgram(t), t}) })
	}
}

// An arch is the program as one rule reads it.
type arch struct {
	*program
	t *testing.T
}

// obj returns key's object, or fails as stale and returns one nothing uses.
func (a arch) obj(key string) types.Object {
	if d := a.byKey[key]; d != nil {
		return d.obj
	}
	a.t.Errorf("stale: %s is declared nowhere", key)
	return types.NewLabel(token.NoPos, types.NewPackage(key, ""), key)
}

// in returns the files under paths ("" is every file, a directory ends in
// "/"), or the declarations they key. A path that matches none is stale.
func (a arch) in(paths ...string) (out []*srcFile) {
	for _, p := range paths {
		n, d := len(out), a.byKey[p]
		for _, f := range a.files {
			if d != nil && d.pos.Filename == f.name {
				out = append(out, &srcFile{d.node, f.name, f.info})
			} else if d == nil && (p == "" || f.name == p || strings.HasSuffix(p, "/") && strings.HasPrefix(f.name, p)) {
				out = append(out, f)
			}
		}
		if len(out) == n {
			a.t.Errorf("stale: %s names no Go file or declaration", p)
		}
	}
	return out
}

// forbid fails at every node of files that bad reports, given the object an
// identifier declares or denotes (nil elsewhere, and in test files).
func (a arch) forbid(files []*srcFile, bad func(f *srcFile, n ast.Node, o types.Object) bool) {
	for _, f := range files {
		ast.Inspect(f.node, func(n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			if o := origin(f.info.ObjectOf(id)); n != nil && bad(f, n, o) {
				a.t.Errorf("%s: %T %v", a.fset.Position(n.Pos()), n, id)
			}
			return true
		})
	}
}

// names fails at every identifier of files whose name matches re.
func (a arch) names(files []*srcFile, re string) {
	r := regexp.MustCompile(re)
	a.forbid(files, func(_ *srcFile, n ast.Node, _ types.Object) bool {
		id, ok := n.(*ast.Ident)
		return ok && r.MatchString(id.Name)
	})
}

// only fails at every use in files of key's object outside those of allowed.
func (a arch) only(files []*srcFile, key string, allowed ...string) {
	obj, in := a.obj(key), a.in(allowed...)
	a.forbid(files, func(_ *srcFile, n ast.Node, o types.Object) bool {
		return o == obj && n.Pos() != obj.Pos() && !within(n, in)
	})
}

// fullName returns a function's qualified name: "(*cxrpq/internal/ecrpq.Leaf).Set".
func fullName(o types.Object) string {
	if fn, ok := o.(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// typed fails at every identifier of files whose object's type string matches re.
func (a arch) typed(files []*srcFile, re string) {
	r := regexp.MustCompile(re)
	a.forbid(files, func(_ *srcFile, _ ast.Node, o types.Object) bool {
		return o != nil && r.MatchString(types.TypeString(types.Unalias(o.Type()), nil))
	})
}
