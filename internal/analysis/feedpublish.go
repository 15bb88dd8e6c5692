package analysis

import (
	"go/ast"
)

// feedpublish guards LSN integrity: feed.publish/publishAt/rebase assign
// change-feed positions, and the PR 4 invariant is that assignment
// happens while the touched stripe write locks are held — that is what
// makes feed order a valid serialization of the store. The only
// functions that hold the right locks at the right moment are the oms
// commit helpers (commitApplied, Apply, Delete) and the replication
// surface (ApplyReplicated, ResetFromSnapshot). Any new call site is
// flagged: publishing outside the hold would let an LSN escape the lock
// and reorder history for every feed consumer — snapshots, notifiers,
// replicas.
var FeedPublishAnalyzer = &Analyzer{
	Name: "feedpublish",
	Doc:  "feed.publish/publishAt/rebase may only be called from the commit helpers that hold the touched stripes",
	Match: func(p *Package) bool {
		return p.Name == "oms" && p.Types.Scope().Lookup("feed") != nil
	},
	Run: runFeedPublish,
}

// feedPublishAllowed are the commit helpers sanctioned to assign LSNs.
var feedPublishAllowed = map[string]bool{
	"commitApplied":     true, // single-op commit, caller holds the op's stripes
	"Apply":             true, // grouped commit, holds the batch's stripe set
	"Delete":            true, // cascade commit, holds lockAll
	"ApplyReplicated":   true, // follower apply, holds lockAll, publishes at primary LSNs
	"ResetFromSnapshot": true, // bootstrap swap, holds lockAll, rebases the feed
}

func runFeedPublish(pass *Pass) {
	decls := funcDecls(pass.Package)
	for fn, fd := range decls {
		if fd.Body == nil {
			continue
		}
		if feedPublishAllowed[fn.Name()] {
			continue
		}
		// The feed's own implementation may touch itself.
		if recvNamedIs(fn, "feed") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || !recvNamedIs(callee, "feed") {
				return true
			}
			switch callee.Name() {
			case "publish", "publishAt", "rebase":
				pass.Reportf(call.Pos(), "%s called from %s, which is not a sanctioned commit helper; LSN assignment must happen under the stripe hold (commitApplied/Apply/Delete/ApplyReplicated/ResetFromSnapshot)", callee.Name(), fn.Name())
			}
			return true
		})
	}
}
