package rdf

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestSlotLayoutInternAndDecode(t *testing.T) {
	l := NewSlotLayout()
	if got := l.Intern("x"); got != 0 {
		t.Fatalf("first slot = %d", got)
	}
	if got := l.Intern("?x"); got != 0 {
		t.Fatalf("sigil-stripped intern: %d", got)
	}
	if got := l.Intern("y"); got != 1 {
		t.Fatalf("second slot = %d", got)
	}
	if s, ok := l.Slot("?y"); !ok || s != 1 {
		t.Fatalf("Slot(?y) = %d, %v", s, ok)
	}
	if _, ok := l.Slot("z"); ok {
		t.Fatal("Slot must not intern")
	}
	if l.Width() != 2 || l.Name(0) != "x" || l.Name(1) != "y" {
		t.Fatalf("layout: width=%d names=%q,%q", l.Width(), l.Name(0), l.Name(1))
	}
}

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	g := NewGraph()
	g.AddTriple("a", "p", "b")
	g.AddTriple("b", "p", "c")
	l := NewSlotLayout()
	l.Intern("x")
	l.Intern("y")
	l.Intern("z")

	m := Mapping{"x": "a", "z": "c"} // y deliberately unbound
	row, ok := l.EncodeMapping(g.Dict(), m)
	if !ok {
		t.Fatal("encode failed")
	}
	if row[1] != Unbound {
		t.Fatal("unbound variable must encode to Unbound")
	}
	back := l.DecodeRow(g.Dict(), row)
	if !back.Equal(m) {
		t.Fatalf("round trip: %v != %v", back, m)
	}

	if _, ok := l.EncodeMapping(g.Dict(), Mapping{"x": "nonexistent"}); ok {
		t.Fatal("unknown value must fail encoding")
	}
	if _, ok := l.EncodeMapping(g.Dict(), Mapping{"other": "a"}); ok {
		t.Fatal("unknown variable must fail encoding")
	}
}

// addRows exercises Add/ContainsRow/Len/Each on a set; the same rows
// must behave identically on the uint64 fast path and the byte-string
// fallback.
func addRows(t *testing.T, s *IDMappingSet, l *SlotLayout) {
	t.Helper()
	r1 := Row{0, Unbound, 2}
	r2 := Row{0, 1, 2}
	r3 := Row{Unbound, Unbound, Unbound}
	for _, r := range []Row{r1, r2, r3} {
		if !s.Add(r) {
			t.Fatalf("fresh row %v reported duplicate", r)
		}
	}
	for _, r := range []Row{r1, r2, r3} {
		if s.Add(r.Clone()) {
			t.Fatalf("duplicate row %v reported fresh", r)
		}
		if !s.ContainsRow(r) {
			t.Fatalf("ContainsRow(%v) = false", r)
		}
	}
	if s.ContainsRow(Row{0, Unbound, 1}) {
		t.Fatal("absent row reported present")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Insertion order and aliasing-free iteration.
	var got []Row
	s.Each(func(r Row) bool {
		got = append(got, r.Clone())
		return true
	})
	want := []Row{r1, r2, r3}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d: %v != %v", i, got[i], want[i])
			}
		}
	}
}

func TestIDMappingSetSmallKeys(t *testing.T) {
	l := NewSlotLayout()
	l.Intern("x")
	l.Intern("y")
	l.Intern("z")
	addRows(t, NewIDMappingSet(l, 1000), l) // 10 bits × 3 slots ≤ 64
}

func TestIDMappingSetBigKeys(t *testing.T) {
	l := NewSlotLayout()
	l.Intern("x")
	l.Intern("y")
	l.Intern("z")
	// maxID 0 disables every bound value on the fast path; all rows
	// with bound slots take byte-string keys.
	addRows(t, NewIDMappingSet(l, 0), l)
}

// Rows of 4 × 17 = 68 bits pack into the two-word key; rows carrying a
// value past the budget, and every row of an 8-slot (136-bit) layout,
// take byte-string keys. Random rows drawn from both kinds must dedup
// exactly like a plain map, keep insertion order, answer ContainsRow
// and survive AddAll.
func TestIDMappingSetTwoWordKeys(t *testing.T) {
	const maxID = 100000 // 17 bits per slot
	for _, width := range []int{4, 8} {
		l := NewSlotLayout()
		for i := 0; i < width; i++ {
			l.Intern(fmt.Sprintf("v%d", i))
		}
		s := NewIDMappingSet(l, maxID)
		if packed := s.packed != nil; packed != (width == 4) {
			t.Fatalf("width %d: packed path enabled = %v", width, packed)
		}
		// Pairs that differ only in the slot straddling the word
		// boundary, and only in its high bits.
		straddle := []Row{{1 << 16, 0, 0, 0}, {1, 0, 0, 0}, {1<<16 | 1, 0, 0, 0}}
		rng := rand.New(rand.NewSource(int64(width)))
		var rows []Row
		for _, r := range straddle {
			rows = append(rows, append(r.Clone(), make(Row, width-4)...))
		}
		for i := 0; i < 2000; i++ {
			r := make(Row, width)
			for j := range r {
				switch x := rng.Intn(10); {
				case x == 0:
					r[j] = Unbound
				case x == 1:
					r[j] = TermID(maxID + rng.Intn(3)) // past the budget
				default:
					r[j] = TermID(maxID - 1 - rng.Intn(3)) // few values: duplicates
				}
			}
			rows = append(rows, r)
		}
		ref := map[string]bool{}
		var order []Row
		for _, r := range rows {
			key := fmt.Sprint(r)
			if fresh := s.Add(r); fresh == ref[key] {
				t.Fatalf("width %d: Add(%v) = %v, already present = %v", width, r, fresh, ref[key])
			}
			if !ref[key] {
				ref[key] = true
				order = append(order, r)
			}
			if !s.ContainsRow(r) {
				t.Fatalf("width %d: ContainsRow(%v) = false after Add", width, r)
			}
		}
		if s.ContainsRow(append(Row{2}, make(Row, width-1)...)) {
			t.Fatalf("width %d: absent row reported present", width)
		}
		cp := NewIDMappingSet(l, maxID)
		cp.AddAll(s)
		cp.AddAll(s)
		for _, set := range []*IDMappingSet{s, cp} {
			if set.Len() != len(order) {
				t.Fatalf("width %d: Len = %d, want %d", width, set.Len(), len(order))
			}
			for i, want := range order {
				if got := set.Row(i); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("width %d: row %d = %v, want %v", width, i, got, want)
				}
			}
		}
	}
}

func TestIDMappingSetDecode(t *testing.T) {
	g := NewGraph()
	g.AddTriple("a", "p", "b")
	l := NewSlotLayout()
	l.Intern("x")
	l.Intern("y")
	s := NewIDMappingSet(l, g.Dict().NumIRIs())
	row, _ := l.EncodeMapping(g.Dict(), Mapping{"x": "a", "y": "b"})
	s.Add(row)
	row2, _ := l.EncodeMapping(g.Dict(), Mapping{"x": "b"})
	s.Add(row2)
	dec := s.Decode(g.Dict())
	if dec.Len() != 2 {
		t.Fatalf("decoded %d mappings", dec.Len())
	}
	if !dec.Contains(Mapping{"x": "a", "y": "b"}) || !dec.Contains(Mapping{"x": "b"}) {
		t.Fatalf("decode lost mappings: %v", dec.Slice())
	}
}

func TestIDMappingSetSortedRows(t *testing.T) {
	l := NewSlotLayout()
	l.Intern("x")
	s := NewIDMappingSet(l, 100)
	s.Add(Row{7})
	s.Add(Row{Unbound})
	s.Add(Row{3})
	rows := s.SortedRows()
	if rows[0][0] != 3 || rows[1][0] != 7 || rows[2][0] != Unbound {
		t.Fatalf("sorted order: %v", rows)
	}
}
