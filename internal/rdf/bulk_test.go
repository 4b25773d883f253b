package rdf

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// The builder's dedup table is the one the freeze adopts, so after
// every Add it must be exactly buildMembership over the triples so far:
// the same size rule, the same slots. Duplicates come right at each
// growth boundary, where a table that grew one step early — or on a
// duplicate — would already be twice the size.
func TestGraphBuilderMembershipIsBuildMembership(t *testing.T) {
	b := NewGraphBuilder(0)
	d := b.Dict()
	check := func(step string) {
		t.Helper()
		if len(b.memb) != membSize(b.Len()) || !slices.Equal(b.memb, buildMembership(b.all)) {
			t.Fatalf("%s: %d-slot table over %d triples differs from buildMembership's %d slots",
				step, len(b.memb), b.Len(), membSize(b.Len()))
		}
	}
	check("empty")
	for i := 0; i < 1<<10+3; i++ {
		tr := IDTriple{d.InternIRI(fmt.Sprintf("s%d", i%29)), d.InternIRI(fmt.Sprintf("p%d", i%3)), d.InternIRI(fmt.Sprintf("o%d", i))}
		if !b.AddID(tr) {
			t.Fatalf("triple %d reported as a duplicate", i)
		}
		check(fmt.Sprintf("after triple %d", i))
		if b.AddID(tr) || b.AddID(b.all[0]) || b.AddID(b.all[b.Len()/2]) {
			t.Fatalf("a duplicate was appended after triple %d", i)
		}
		check(fmt.Sprintf("duplicates after triple %d", i))
	}
	memb := b.memb
	g := b.Graph()
	if &g.frz.memb[0] != &memb[0] {
		t.Fatal("the sealed base rebuilt the membership table instead of adopting the builder's")
	}
}

// vocabDump renders n data lines over a fixed 64-term vocabulary,
// every fourth line a repeat of the line before it.
func vocabDump(n int) []byte {
	var b bytes.Buffer
	var line string
	x := uint32(1)
	for i := 0; i < n; i++ {
		if i%4 != 3 {
			x = x*1664525 + 1013904223
			line = fmt.Sprintf("t%d t%d <t%d> .\n", x>>26, x>>20&63, x>>14&63)
		}
		b.WriteString(line)
	}
	return b.Bytes()
}

// A bulk load costs its bytes: a data line allocates nothing, so at 8N
// lines ReadGraph allocates only what the growing triple slice and
// dedup table cost per doubling, never an object per line.
func TestReadGraphAllocsFlat(t *testing.T) {
	loadAllocs := func(n int) float64 {
		src := vocabDump(n)
		return testing.AllocsPerRun(3, func() {
			if _, err := ReadGraph(bytes.NewReader(src)); err != nil {
				t.Fatal(err)
			}
		})
	}
	const doublings = 3 // N → 8N lines
	small, large := loadAllocs(1<<12), loadAllocs(1<<15)
	if large-small > 5*doublings {
		t.Fatalf("ReadGraph allocates %.0f objects over %d lines, %.0f over %d: more than 5 per doubling",
			small, 1<<12, large, 1<<15)
	}
	t.Logf("%.0f objects over %d lines, %.0f over %d", small, 1<<12, large, 1<<15)
}
