package pebble

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"wdsparql/internal/hom"
	"wdsparql/internal/rdf"
)

// Tests of the compiled Game: one µ-independent compilation must decide
// every µ exactly as the per-call Decide does, from any number of
// goroutines; its size estimate must bound the closure it predicts; and
// the instances it cannot represent must come back as errors.

// gameFor compiles pat with the variables v0..v(x-1) distinguished and
// returns the game plus a row builder for their values.
func gameFor(t *testing.T, pat hom.TGraph, x int, g *rdf.Graph) (*Game, func(vals []string) (rdf.Row, rdf.Mapping)) {
	t.Helper()
	layout := rdf.NewSlotLayout()
	var dist []rdf.Term
	for i := 0; i < x; i++ {
		dist = append(dist, rdf.Var(fmt.Sprintf("v%d", i)))
		layout.Intern(fmt.Sprintf("v%d", i))
	}
	gm, err := Compile(pat, dist, g, layout)
	if err != nil {
		t.Fatal(err)
	}
	return gm, func(vals []string) (rdf.Row, rdf.Mapping) {
		mu := rdf.NewMapping()
		for i, v := range vals {
			mu[fmt.Sprintf("v%d", i)] = v
		}
		row, ok := layout.EncodeMapping(g.Dict(), mu)
		if !ok {
			t.Fatalf("cannot encode %v", mu)
		}
		return row, mu
	}
}

func TestGameAgreesWithOneShotDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	ctx := context.Background()
	for trial := 0; trial < 150; trial++ {
		pat := randPattern(rng, 3+rng.Intn(3), 2+rng.Intn(5))
		pat = pat.Union(hom.NewTGraph(rdf.T(rdf.Var("v2"), rdf.IRI("p"), rdf.IRI("d0")))) // a unary template
		g := randGraphData(rng, 4, 12)
		x := rng.Intn(3)
		gm, rowOf := gameFor(t, pat, x, g)
		gt := hom.NewGTGraph(pat, nil) // the one-shot form fixes whatever µ binds
		dom := g.Dom()
		for probe := 0; probe < 4; probe++ {
			vals := make([]string, x)
			for i := range vals {
				vals[i] = dom[rng.Intn(len(dom))]
			}
			row, mu := rowOf(vals)
			for k := 2; k <= 3; k++ {
				c, err := gm.Decide(ctx, k, row)
				if err != nil {
					t.Fatal(err)
				}
				if want := Decide(k, gt, mu, g); c.Win != want {
					t.Fatalf("trial %d k=%d µ=%v: game %v, one-shot %v\npat=%s\nG=%s", trial, k, mu, c.Win, want, pat, rdf.FormatGraph(g))
				}
				if want := DecideNoUnaryPruning(k, gt, mu, g); c.Win != want {
					t.Fatalf("trial %d k=%d µ=%v: game %v, unpruned %v", trial, k, mu, c.Win, want)
				}
				if cells := gm.Cells(k, row); int64(c.Assignments) > cells {
					t.Fatalf("trial %d k=%d: %d assignments enumerated, estimate %d", trial, k, c.Assignments, cells)
				}
			}
		}
	}
}

func TestGameConcurrentDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	pat := randPattern(rng, 5, 6)
	g := randGraphData(rng, 5, 18)
	gm, rowOf := gameFor(t, pat, 1, g)
	var wg sync.WaitGroup
	for _, v := range g.Dom() {
		row, mu := rowOf([]string{v})
		want := Decide(3, hom.NewGTGraph(pat, nil), mu, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if c, err := gm.Decide(context.Background(), 3, row); err != nil || c.Win != want {
					t.Errorf("µ=%v: %v, %v; want %v", mu, c.Win, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestGameCancelledAndTooLarge(t *testing.T) {
	g := randGraphData(rand.New(rand.NewSource(227)), 5, 18)
	chain := func(n int) hom.TGraph {
		var ts []rdf.Triple
		for i := 0; i < n; i++ {
			ts = append(ts, rdf.T(rdf.Var(fmt.Sprintf("c%d", i)), rdf.IRI("p"), rdf.Var(fmt.Sprintf("c%d", i+1))))
		}
		return hom.NewTGraph(ts...)
	}
	if _, err := Compile(chain(64), nil, g, rdf.NewSlotLayout()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("65 free variables: Compile error %v, want ErrTooLarge", err)
	}
	gm, err := Compile(chain(63), nil, g, rdf.NewSlotLayout())
	if err != nil {
		t.Fatalf("64 free variables must compile: %v", err)
	}
	if _, err := gm.Decide(context.Background(), 5, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("8.3M variable sets: Decide error %v, want ErrTooLarge", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gm.Decide(ctx, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: Decide error %v, want context.Canceled", err)
	}
}
