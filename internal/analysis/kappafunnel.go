package analysis

import (
	"go/ast"
	"go/types"
)

// kappaFunnelAllowed are the functions permitted to write κ state:
// transition (the funnel itself, maintaining hist and maxK), setKappa
// (the κ-array write paired with its transition), the engine
// constructors (NewEngine delegates to NewEngineFromDecomposition, which
// seeds κ and hist from the static decomposition), ensureEdgeCap
// (growing the κ array for new slots) and moveEdge (carrying κ to the
// id the batch-end compaction moves an edge to: a slot move changes no
// κ value, so it owes no histogram count or observer event).
var kappaFunnelAllowed = map[string]bool{
	"transition":                 true,
	"setKappa":                   true,
	"NewEngine":                  true,
	"NewEngineFromDecomposition": true,
	"ensureEdgeCap":              true,
	"moveEdge":                   true,
}

// kappaStagingAllowed are the functions permitted to write the staged-κ
// overlay of a worker context (applyCtx.sKappa/sMark): stageKappa (the
// staging funnel — the only writer that records the edge in the write
// set, which the merge and conflict validation read), growEdges (sizing
// new slots) and execRegion (the generation-wrap wipe). A staged value
// written anywhere else would bypass the write-set record and land on the
// engine without conflict validation — or never land at all.
var kappaStagingAllowed = map[string]bool{
	"stageKappa": true,
	"growEdges":  true,
	"execRegion": true,
}

// KappaFunnel enforces the engine's central bookkeeping discipline: the
// kappa, hist and maxK fields of Engine are written only inside the
// funnel functions above, and the staged overlay fields of applyCtx only
// inside the staging funnel. Everything else must go through setKappa /
// transition (which keep the histogram, maxK and the change observer in
// lockstep with the κ array — a direct field write elsewhere silently
// desynchronizes all three) or stageKappa (which keeps the write set in
// lockstep with the overlay).
var KappaFunnel = Rule{
	Name:    "kappa-funnel",
	Doc:     "Engine.kappa/hist/maxK and applyCtx.sKappa/sMark are written only via their funnels",
	Applies: func(rel string) bool { return rel == "internal/dynamic" },
	Run:     runKappaFunnel,
}

func runKappaFunnel(p *Pass) {
	// guardedField describes one protected field: which struct owns it,
	// which functions may write it, and the diagnostic to emit elsewhere.
	type guardedField struct {
		owner   string
		allowed map[string]bool
		msg     string
	}
	guarded := make(map[*types.Var]guardedField)
	collect := func(typeName string, fields []string, allowed map[string]bool, msg string) {
		obj := p.Pkg.Types.Scope().Lookup(typeName)
		if obj == nil {
			return
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			for _, name := range fields {
				if f.Name() == name {
					guarded[f] = guardedField{owner: typeName, allowed: allowed, msg: msg}
				}
			}
		}
	}
	collect("Engine", []string{"kappa", "hist", "maxK"}, kappaFunnelAllowed,
		"outside the κ funnel (allowed: transition, setKappa, constructors, ensureEdgeCap, moveEdge)")
	collect("applyCtx", []string{"sKappa", "sMark"}, kappaStagingAllowed,
		"outside the staging funnel (allowed: stageKappa, growEdges, execRegion)")
	if len(guarded) == 0 {
		return
	}

	check := func(fn string, e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			}
			break
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		s, ok := p.Pkg.Info.Selections[sel]
		if !ok {
			return
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return
		}
		g, hit := guarded[v]
		if !hit || g.allowed[fn] {
			return
		}
		p.Reportf(sel.Pos(), "write to %s.%s %s", g.owner, v.Name(), g.msg)
	}

	for _, fd := range funcDecls(p.Pkg) {
		fn := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					check(fn, lhs)
				}
			case *ast.IncDecStmt:
				check(fn, stmt.X)
			}
			return true
		})
	}
}
