package ptree

import (
	"testing"

	"wdsparql/internal/sparql"
)

// Instantiating a template's forest gives the forest wdpf builds for
// the text, also where a sort is decided at a parameter: the order is
// restored after substituting.
func TestInstantiateForest(t *testing.T) {
	for _, text := range []string{
		// The root's two triples sort by their subjects.
		`((person2 knows ?y) AND (person1 knows ?y))`,
		`((person1 knows ?y) AND (person2 knows ?y))`,
		// An IRI against a variable: decided by kind.
		`((person1 knows ?y) AND (?y knows person2))`,
		// Two children whose renderings first differ inside a parameter.
		`(((?x p ?y) OPT (o2 q ?z)) OPT (o1 q ?w))`,
		`(((?x p ?y) OPT (o1 q ?z)) OPT (o2 q ?w))`,
		// ... and two that first differ at a variable.
		`(((a p ?y) OPT (?y q ?z)) OPT (?y q ?w))`,
		`(((?x p ?y) OPT ((?y q ?z) FILTER (?z = o2))) OPT ((?y q ?w) FILTER (?w = o1)))`,
		// Siblings that render alike keep their construction order.
		`(((?x p ?y) OPT (?y q zz)) OPT (?y q zz))`,
		// One parameter twice.
		`((a p ?y) AND (a q ?y))`,
		`(((b p ?y) OPT (?y q ?z)) UNION ((a p ?y) OPT (?y r ?w)))`,
	} {
		key, consts, ok := sparql.TemplateKey(text)
		if !ok || consts == nil {
			t.Fatalf("%s: no template", text)
		}
		f, err := WDPF(sparql.MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		tp, err := sparql.ParseTemplate(key)
		if err != nil {
			t.Fatalf("ParseTemplate(%q): %v", key, err)
		}
		tf, err := WDPF(tp)
		if err != nil {
			t.Fatal(err)
		}
		got := InstantiateForest(tf, consts)
		if got.String() != f.String() {
			t.Fatalf("%s: instantiated\n%s\nwant\n%s", text, got, f)
		}
		for i, tr := range got {
			for id, n := range tr.Nodes() {
				if n.ID != id || n.ID != f[i].Node(id).ID || n.Pattern.String() != f[i].Node(id).Pattern.String() {
					t.Fatalf("%s: tree %d node %d is %s, want %s", text, i, id, n.Pattern, f[i].Node(id).Pattern)
				}
			}
		}
	}
}
