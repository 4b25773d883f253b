package core

// SetDedupView returns a view of fp that drops cross-tree duplicates
// through the seen-set, whatever Dedup() says: the reference stream the
// membership test is diffed against.
func SetDedupView(fp *ForestProgram) *ForestProgram {
	out := *fp
	out.member = nil
	return &out
}
