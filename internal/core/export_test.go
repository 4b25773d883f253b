package core

import "wdsparql/internal/hom"

// SetDedupView returns a view of fp that drops cross-tree duplicates
// through the seen-set, whatever Dedup() says: the reference stream the
// membership test is diffed against.
func SetDedupView(fp *ForestProgram) *ForestProgram {
	out := *fp
	out.member = nil
	return &out
}

// NodePrograms returns fp's compiled node programs, one per wdPT node.
func NodePrograms(fp *ForestProgram) []*hom.RowProgram {
	var out []*hom.RowProgram
	var walk func(n *compiledNode)
	walk = func(n *compiledNode) {
		out = append(out, n.prog)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range fp.roots {
		walk(r)
	}
	return out
}

// DecisionPrograms returns every program e's cached plans run: the
// witness nodes' and the extension tests'.
func DecisionPrograms(e *Evaluator) []*hom.RowProgram {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*hom.RowProgram
	for _, p := range e.order {
		for _, tp := range p.trees {
			for _, n := range tp.witness {
				out = append(out, n.prog)
			}
			for _, t := range tp.tests {
				out = append(out, t.node.prog)
			}
		}
	}
	return out
}

// MembershipViews returns the decision views of fp's UNION dedup; nil
// until a row has reached a decision.
func MembershipViews(fp *ForestProgram) []*Evaluator {
	if fp.member == nil {
		return nil
	}
	return fp.member.views
}
