package rdf

import (
	"fmt"
	"math/rand"
	"slices"
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

// addRows exercises Add/ContainsRow/Len/Each on a set over a 3-slot
// layout, with every bound value offset by base.
func addRows(t *testing.T, s *IDMappingSet, base TermID) {
	t.Helper()
	r1 := Row{base, Unbound, base + 2}
	r2 := Row{base, base + 1, base + 2}
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
	if s.ContainsRow(Row{base, Unbound, base + 1}) {
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
	if want := []Row{r1, r2, r3}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("Each yielded %v, want %v", got, want)
	}
}

func threeSlots() *SlotLayout {
	l := NewSlotLayout()
	l.Intern("x")
	l.Intern("y")
	l.Intern("z")
	return l
}

func TestIDMappingSetSmallKeys(t *testing.T) {
	addRows(t, NewIDMappingSet(threeSlots()), 0)
}

// Values just under Unbound use every bit of a TermID; they must not
// collide with Unbound or with each other.
func TestIDMappingSetBigKeys(t *testing.T) {
	addRows(t, NewIDMappingSet(threeSlots()), Unbound-3)
}

// Rows of widths 4 and 8 that differ only in the high bits of one slot
// (the slot that straddles a 64-bit word at 17 bits per slot), mixed
// with random rows of Unbound, values past a 17-bit budget and heavy
// duplicates, must dedup exactly like a plain map, keep insertion
// order, answer ContainsRow and survive AddAll.
func TestIDMappingSetTwoWordKeys(t *testing.T) {
	const budget = 100000 // 17 bits per slot
	for _, width := range []int{4, 8} {
		l := NewSlotLayout()
		for i := 0; i < width; i++ {
			l.Intern(fmt.Sprintf("v%d", i))
		}
		s := NewIDMappingSet(l)
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
					r[j] = TermID(budget + rng.Intn(3)) // past the budget
				default:
					r[j] = TermID(budget - 1 - rng.Intn(3)) // few values: duplicates
				}
			}
			rows = append(rows, r)
		}
		ref := map[string]bool{}
		var order []Row
		for _, r := range rows {
			key := rowKey(r)
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
		cp := NewIDMappingSet(l)
		cp.AddAll(s)
		cp.AddAll(s)
		for _, set := range []*IDMappingSet{s, cp} {
			if set.Len() != len(order) {
				t.Fatalf("width %d: Len = %d, want %d", width, set.Len(), len(order))
			}
			for i, want := range order {
				if got := set.Row(i); !slices.Equal(got, want) {
					t.Fatalf("width %d: row %d = %v, want %v", width, i, got, want)
				}
			}
		}
	}
}

// TestIDMappingSetModel checks the set against a map model over row
// widths 0–9: Add's verdict, ContainsRow (present and absent rows),
// Len, Row(i), Each (with early stop), AddAll and insertion order. The
// draws mix values that straddle a 64-bit word at 17 bits per slot,
// values past a 17-bit budget, Unbound, heavy duplicates, rows that
// share their low hash bits (one probe chain in every index of up to
// 1024 entries), and enough distinct rows to cross every growth
// boundary up to 4096 rows, with the whole model re-checked on both
// sides of each.
func TestIDMappingSetModel(t *testing.T) {
	const budget = 100000 // 17 bits per slot
	for width := 0; width <= 9; width++ {
		l := NewSlotLayout()
		for i := 0; i < width; i++ {
			l.Intern(fmt.Sprintf("v%d", i))
		}
		rng := rand.New(rand.NewSource(int64(width)))
		pad := func(r Row) Row { return append(r, make(Row, width)...)[:width:width] }
		var rows []Row
		for _, r := range []Row{{1 << 16}, {1}, {1<<16 | 1}, {0, 1 << 16}, {0, 1<<16 | 1}} {
			rows = append(rows, pad(r))
		}
		for i := 0; i < 2000; i++ {
			r := make(Row, width)
			for j := range r {
				switch x := rng.Intn(10); {
				case x == 0:
					r[j] = Unbound
				case x == 1:
					r[j] = TermID(budget + rng.Intn(3))
				default:
					r[j] = TermID(budget - 1 - rng.Intn(3)) // few values: duplicates
				}
			}
			rows = append(rows, r)
		}
		if width > 0 {
			rows = append(rows, lowHashCollisions(rng, width, 1023, 64)...)
		}
		for i := 0; i < 4100; i++ {
			r := make(Row, width)
			for j := range r {
				r[j] = TermID(i>>(3*j)) ^ TermID(j)
			}
			rows = append(rows, r)
		}

		s := NewIDMappingSet(l)
		in := map[string]bool{}
		var order []Row
		check := func(stage string) {
			t.Helper()
			if s.Len() != len(order) {
				t.Fatalf("width %d %s: Len = %d, want %d", width, stage, s.Len(), len(order))
			}
			for i, want := range order {
				if !s.ContainsRow(want) || !slices.Equal(s.Row(i), want) {
					t.Fatalf("width %d %s: row %d = %v (contained %v), want %v",
						width, stage, i, s.Row(i), s.ContainsRow(want), want)
				}
			}
		}
		for _, r := range rows {
			k := rowKey(r)
			if fresh := s.Add(r); fresh == in[k] {
				t.Fatalf("width %d: Add(%v) = %v, already present = %v", width, r, fresh, in[k])
			}
			if !in[k] {
				in[k] = true
				order = append(order, r)
				if n := len(order); n&(n-1) == 0 || (n-1)&(n-2) == 0 {
					check(fmt.Sprintf("at %d rows", n))
				}
			}
		}
		check("after every insert")
		for i := 0; i < 2000; i++ {
			r := make(Row, width)
			for j := range r {
				r[j] = TermID(rng.Intn(budget + 10))
			}
			if got := s.ContainsRow(r); got != in[rowKey(r)] {
				t.Fatalf("width %d: ContainsRow(%v) = %v, model %v", width, r, got, !got)
			}
		}
		if s.ContainsRow(make(Row, width+1)) {
			t.Fatalf("width %d: a row of the wrong width reported present", width)
		}

		var each []Row
		s.Each(func(r Row) bool {
			each = append(each, r.Clone())
			return len(each) < len(order)/2+1
		})
		if want := order[:len(order)/2+1]; !slices.EqualFunc(each, want, slices.Equal) {
			t.Fatalf("width %d: Each with early stop yielded %d rows, want %d in insertion order", width, len(each), len(want))
		}
		cp := NewIDMappingSet(l)
		cp.AddAll(s)
		cp.AddAll(s)
		s = cp
		check("after AddAll")
	}
}

// rowKey is the model's key of a row.
func rowKey(r Row) string {
	var b []byte
	for _, v := range r {
		b = AppendIDLE(b, v)
	}
	return string(b)
}

// lowHashCollisions draws n distinct rows whose hashes agree on the
// bits under mask, so they share one probe chain in every index of at
// most mask+1 entries.
func lowHashCollisions(rng *rand.Rand, width int, mask uint64, n int) []Row {
	var out []Row
	seen := map[string]bool{}
	var want uint64
	for len(out) < n {
		r := make(Row, width)
		for j := range r {
			r[j] = TermID(rng.Uint32())
		}
		h := hashRow(r) & mask
		if len(out) == 0 {
			want = h
		}
		if h == want && !seen[rowKey(r)] {
			seen[rowKey(r)] = true
			out = append(out, r)
		}
	}
	return out
}

func TestIDMappingSetDecode(t *testing.T) {
	g := NewGraph()
	g.AddTriple("a", "p", "b")
	l := NewSlotLayout()
	l.Intern("x")
	l.Intern("y")
	s := NewIDMappingSet(l)
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
	s := NewIDMappingSet(l)
	s.Add(Row{7})
	s.Add(Row{Unbound})
	s.Add(Row{3})
	rows := s.SortedRows()
	if rows[0][0] != 3 || rows[1][0] != 7 || rows[2][0] != Unbound {
		t.Fatalf("sorted order: %v", rows)
	}
}
