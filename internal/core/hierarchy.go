package core

import "trikcore/internal/graph"

// HierarchyNode is one community in the nested Triangle K-Core hierarchy:
// a triangle-connected component of the κ ≥ K subgraph. Children are the
// κ ≥ K+1 components nested inside it — denser sub-communities. The
// hierarchy is the navigation structure behind the paper's visual
// analytics: drilling from a broad community into its densest clique-like
// kernels follows parent→child links.
type HierarchyNode struct {
	// K is the Triangle K-Core level of this community.
	K int32
	// Edges are the component's edges (sorted).
	Edges []graph.Edge
	// Children are the level-K+1 communities nested in this one, ordered
	// by first edge.
	Children []*HierarchyNode
}

// Vertices returns the distinct vertices of the node's edges, sorted.
func (n *HierarchyNode) Vertices() []graph.Vertex { return graph.VerticesOf(n.Edges) }

// Size returns the number of edges in the community.
func (n *HierarchyNode) Size() int { return len(n.Edges) }

// Leaves returns the densest communities under n (nodes with no
// children), in depth-first order.
func (n *HierarchyNode) Leaves() []*HierarchyNode {
	if len(n.Children) == 0 {
		return []*HierarchyNode{n}
	}
	var out []*HierarchyNode
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Hierarchy builds the nested community forest of the decomposition: the
// roots are the triangle-connected components at level 1, and each node's
// children are the components at the next level contained within it.
// Edges in no triangle (κ = 0) appear nowhere in the forest.
//
// The construction runs Communities once per occupied κ level, so it
// costs O(MaxKappa · |Tri|) in the worst case — fine for the
// visualization-sized graphs it exists for.
func (d *Decomposition) Hierarchy() []*HierarchyNode {
	if d.MaxKappa == 0 {
		return nil
	}
	// Build communities level by level and nest by membership of the
	// first edge (a level-k+1 component is triangle-connected within
	// κ ≥ k too, so it lies inside exactly one level-k component).
	var roots []*HierarchyNode
	prev := map[graph.Edge]*HierarchyNode{} // first-level lookup: edge -> deepest node at previous level
	for k := int32(1); k <= d.MaxKappa; k++ {
		comms := d.Communities(k)
		cur := make(map[graph.Edge]*HierarchyNode)
		for _, edges := range comms {
			node := &HierarchyNode{K: k, Edges: edges}
			for _, e := range edges {
				cur[e] = node
			}
			if k == 1 {
				roots = append(roots, node)
				continue
			}
			parent := prev[edges[0]]
			if parent == nil {
				// Cannot happen for a correct decomposition; keep the
				// node reachable rather than dropping it.
				roots = append(roots, node)
				continue
			}
			parent.Children = append(parent.Children, node)
		}
		prev = cur
	}
	return roots
}
