package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// snapshotConstructors are the functions allowed to assign through a
// frozen value, keyed by module-relative package directory: the view
// builder fills each fresh row block in place before any view holds it,
// and nothing else in the module may write through a frozen value. The
// views themselves, and Snapshot in the view package, are built with
// composite literals and never assigned through, not even by their own
// constructors.
var snapshotConstructors = map[string]map[string]bool{
	"internal/graph": {
		"buildBlock": true, // Dense.Freeze's builder filling a fresh block's chunks
	},
}

// SnapshotImmutable bans assignments (and copy-into) through any value
// reachable from a published view.Snapshot, a frozen graph.Static or one
// of the row chunks consecutive Static views share —
// the "mutate a published slice" bug class. The serving layer's
// correctness argument is that a snapshot never changes after its
// atomic-pointer publication, so every reader works on consistent state
// without locks; the byte-determinism tests can only catch a violation
// probabilistically (the mutation must race a comparison), while this
// rule catches the write site itself. Runs over every package: frozen
// values cross package boundaries by design.
var SnapshotImmutable = Rule{
	Name:    "snapshot-immutable",
	Doc:     "no assignment through view.Snapshot, graph.Static or its row chunks outside the CSR builder",
	Applies: func(rel string) bool { return true },
	Run:     runSnapshotImmutable,
}

func runSnapshotImmutable(p *Pass) {
	allowed := snapshotConstructors[p.Pkg.Rel]
	for _, fd := range funcDecls(p.Pkg) {
		if allowed[fd.Name.Name] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					checkFrozenWrite(p, lhs, "assignment")
				}
			case *ast.IncDecStmt:
				checkFrozenWrite(p, stmt.X, "assignment")
			case *ast.CallExpr:
				// copy(sn.Kappa, ...) and append in-place reuse both
				// mutate the destination's backing array.
				if id, ok := stmt.Fun.(*ast.Ident); ok && id.Name == "copy" {
					if _, builtin := p.Pkg.Info.Uses[id].(*types.Builtin); builtin && len(stmt.Args) > 0 {
						checkFrozenWrite(p, stmt.Args[0], "copy into")
					}
				}
			}
			return true
		})
	}
}

// checkFrozenWrite walks the expression's selector/index chain looking
// for a base of frozen type; the first hit is reported.
func checkFrozenWrite(p *Pass, e ast.Expr, verb string) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			if name := frozenTypeName(p, x.X); name != "" {
				p.Reportf(e.Pos(), "%s through %s field %s: published snapshots and frozen CSR views are immutable",
					verb, name, x.Sel.Name)
				return
			}
			e = x.X
			continue
		}
		if name := frozenTypeName(p, e); name != "" {
			p.Reportf(e.Pos(), "%s through a %s value: published snapshots and frozen CSR views are immutable", verb, name)
		}
		return
	}
}

// frozenTypeName reports the display name of e's type when it is (a
// pointer to) view.Snapshot, graph.Static or graph.rowChunk, and ""
// otherwise.
func frozenTypeName(p *Pass, e ast.Expr) string {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	switch {
	case obj.Name() == "Snapshot" && strings.HasSuffix(path, "internal/view"):
		return "view.Snapshot"
	case (obj.Name() == "Static" || obj.Name() == "rowChunk") && strings.HasSuffix(path, "internal/graph"):
		return "graph." + obj.Name()
	}
	return ""
}
