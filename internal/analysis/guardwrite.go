package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// guardwrite machine-checks the replica read-only gate: every exported
// method on jcf.Framework that mutates shared state — reaches a mutating
// oms.Store entry point (Apply/Create/Set/Link/Unlink/Delete/...) or
// writes a framework-level map — must call guardWrite() before its first
// mutation, so a read-only replica view rejects the call before any
// state is touched. PR 5 established this by hand across ~25 entry
// points; this analyzer is what keeps entry point #26 from silently
// skipping it.
//
// Since PR 7, mutation reachability runs over the shared cross-package
// call graph: an exported method that mutates only through a helper in
// another package — a future jcf subpackage, a repl-side apply shim —
// is still mutating. PR 6's version stopped at the package boundary and
// would have gone quiet exactly there. Propagation still stops at
// callees that call guardWrite themselves — they are self-guarding.
var GuardWriteAnalyzer = &Analyzer{
	Name:      "guardwrite",
	Doc:       "exported mutating jcf.Framework methods must call guardWrite() before their first store mutation",
	RunModule: runGuardWrite,
}

// storeMutators are the oms.Store methods that mutate the database.
// Batch staging (Batch.Create, Batch.CopyInBytes, ...) is not listed:
// nothing mutates until the batch reaches Store.Apply.
var storeMutators = map[string]bool{
	"Apply":             true,
	"Create":            true,
	"Set":               true,
	"CopyIn":            true,
	"Link":              true,
	"Unlink":            true,
	"Delete":            true,
	"ApplyReplicated":   true,
	"ResetFromSnapshot": true,
	"ReplayChanges":     true,
}

// guardFacts is what the analyzer knows about one module function.
type guardFacts struct {
	decl         *ast.FuncDecl
	pkg          *Package
	guardPos     token.Pos // first guardWrite() call (NoPos if none)
	directMutPos token.Pos // first direct store/map mutation (NoPos if none)
	callees      []*types.Func
	mutates      bool // reaches a mutation transitively (through any callee)
	unguardedMut bool // reaches a mutation on a path with no guardWrite
}

func runGuardWrite(pass *ModulePass) {
	for fn, f := range guardWriteFacts(pass.Snap) {
		if !isExportedFrameworkMethod(fn, f) {
			continue
		}
		if f.unguardedMut && f.guardPos == token.NoPos {
			pass.Reportf(f.decl.Name.Pos(), "exported mutating Framework method %s does not call guardWrite(); a replica view could write through it", fn.Name())
			continue
		}
		if f.guardPos != token.NoPos && f.directMutPos != token.NoPos && f.guardPos > f.directMutPos {
			pass.Reportf(f.directMutPos, "%s mutates the store before calling guardWrite(); the guard must be the prologue", fn.Name())
		}
	}
}

func isExportedFrameworkMethod(fn *types.Func, f *guardFacts) bool {
	if f.decl == nil || !fn.Exported() || f.pkg.Name != "jcf" {
		return false
	}
	recv := recvNamed(fn)
	return recv != nil && recv.Obj().Name() == "Framework"
}

// guardWriteFacts computes per-function guard/mutation facts for the
// whole module off the shared call graph and runs mutation propagation
// to fixpoint across package boundaries.
func guardWriteFacts(snap *Snapshot) map[*types.Func]*guardFacts {
	g := snap.CallGraph()
	facts := map[*types.Func]*guardFacts{}
	for fn, node := range g.Nodes {
		f := &guardFacts{decl: node.Decl, pkg: node.Pkg}
		if node.Decl.Body != nil {
			scanMapWrites(node, f)
		}
		// Calls come from the graph timeline. Async (go-launched) calls
		// count for mutation reachability too: a method that spawns a
		// goroutine writing the store still writes the store.
		classify := func(callee *types.Func, pos token.Pos) {
			if callee.Name() == "guardWrite" && recvNamedIs(callee, "Framework") {
				if f.guardPos == token.NoPos || pos < f.guardPos {
					f.guardPos = pos
				}
				return
			}
			if storeMutators[callee.Name()] && recvNamedIs(callee, "Store") {
				f.noteMutation(pos)
				return
			}
			f.callees = append(f.callees, callee)
		}
		for _, ev := range node.Events {
			if ev.Kind == EvCall {
				classify(ev.Callee, ev.Pos)
			}
		}
		for _, cr := range node.AsyncCalls {
			classify(cr.Callee, cr.Pos)
		}
		f.mutates = f.directMutPos != token.NoPos
		f.unguardedMut = f.mutates
		facts[fn] = f
	}
	// Propagate mutation module-wide, to fixpoint. Two bits: `mutates`
	// is plain reachability (the classification GuardWriteReport pins);
	// `unguardedMut` — what lint reports on — stops at callees that call
	// guardWrite themselves, since they reject replica writes on their
	// own and reaching mutation only through them is safe.
	for changed := true; changed; {
		changed = false
		for _, f := range facts {
			for _, callee := range f.callees {
				cf, ok := facts[callee]
				if !ok {
					continue
				}
				if cf.mutates && !f.mutates {
					f.mutates = true
					changed = true
				}
				if cf.unguardedMut && cf.guardPos == token.NoPos && !f.unguardedMut {
					f.unguardedMut = true
					changed = true
				}
			}
		}
	}
	return facts
}

// scanMapWrites finds direct framework-map mutations — index
// assignments, wholesale map replacement, ++/--, and the delete builtin
// — which the call graph cannot see (they are not calls).
func scanMapWrites(node *FuncNode, f *guardFacts) {
	pkg := node.Pkg
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok && id.Name == "delete" && len(nn.Args) > 0 {
				if _, builtin := pkg.Info.Uses[id].(*types.Builtin); builtin { // not a shadow
					if isFrameworkMapExpr(pkg, nn.Args[0]) {
						f.noteMutation(nn.Pos())
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range nn.Lhs {
				if isFrameworkMapWrite(pkg, lhs) {
					f.noteMutation(nn.Pos())
				}
			}
		case *ast.IncDecStmt:
			if isFrameworkMapWrite(pkg, nn.X) {
				f.noteMutation(nn.Pos())
			}
		}
		return true
	})
}

func (f *guardFacts) noteMutation(pos token.Pos) {
	if f.directMutPos == token.NoPos || pos < f.directMutPos {
		f.directMutPos = pos
	}
}

func recvNamedIs(fn *types.Func, name string) bool {
	recv := recvNamed(fn)
	return recv != nil && recv.Obj().Name() == name
}

// GuardReport is guardwrite's classification of one exported Framework
// method. Exposed for the real-tree regression test: lint only reports
// MUTATING-and-unguarded methods, so if the classifier ever stops seeing
// the mutation inside a known-mutating entry point, lint would go quiet
// exactly when a deleted guardWrite() call matters most. The test pins
// the classification itself.
type GuardReport struct {
	Method  string
	Guarded bool // calls guardWrite()
	Mutates bool // reaches a store mutator or framework-map write
}

// GuardWriteReport classifies every exported Framework method declared
// in pkg (facts computed module-wide), sorted by method name.
func GuardWriteReport(snap *Snapshot, pkg *Package) []GuardReport {
	var out []GuardReport
	for fn, f := range guardWriteFacts(snap) {
		if f.pkg != pkg || !isExportedFrameworkMethod(fn, f) {
			continue
		}
		out = append(out, GuardReport{
			Method:  fn.Name(),
			Guarded: f.guardPos != token.NoPos,
			Mutates: f.mutates,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Method < out[j].Method })
	return out
}

// isFrameworkMapWrite reports whether the assignment target writes a
// framework-level map: an index into (or wholesale replacement of) a
// map-typed field reached from a Framework value.
func isFrameworkMapWrite(pkg *Package, lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		return isFrameworkMapExpr(pkg, x.X)
	case *ast.SelectorExpr:
		return isFrameworkMapExpr(pkg, x)
	}
	return false
}

// isFrameworkMapExpr reports whether e is a map-typed expression rooted
// in a *Framework value (fw.reservations, fw.typedHier[cv], ...).
func isFrameworkMapExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return false
	}
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := pkg.Info.Uses[root]
	if obj == nil {
		return false
	}
	return typeNameIs(obj.Type(), "Framework")
}
