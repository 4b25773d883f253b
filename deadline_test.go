package wdsparql

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// Count and the scan behind a filtered Ask stop at their deadline even
// in a dead end, a search that reaches no emit: a cross product of two
// disjoint 30,000-triple stars whose every pair a pushed FILTER
// rejects. Unpolled, each runs for tens of seconds.
func TestDeadEndStopsAtDeadline(t *testing.T) {
	const n = 30000
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.Add(Triple{S: IRI(fmt.Sprintf("s%d", i)), P: IRI("knows"), O: IRI(fmt.Sprintf("k%d", i))})
		g.Add(Triple{S: IRI(fmt.Sprintf("t%d", i)), P: IRI("likes"), O: IRI(fmt.Sprintf("l%d", i))})
	}
	q, err := NewEngine(g).PrepareText(`(((?x knows ?y) AND (?z likes ?i)) FILTER (?y = ?i))`)
	if err != nil {
		t.Fatal(err)
	}
	const deadline, slack = 50 * time.Millisecond, 500 * time.Millisecond
	for name, run := range map[string]func(context.Context) error{
		"Count": func(ctx context.Context) error { _, err := q.Count(ctx); return err },
		"Ask": func(ctx context.Context) error {
			_, err := q.Ask(ctx, Mapping{"x": "s1", "y": "k1", "z": "t1", "i": "k1"})
			return err
		},
		"Count/parallel": func(ctx context.Context) error { _, err := q.Count(ctx, Parallel(2)); return err },
	} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		err := run(ctx)
		cancel()
		if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > deadline+slack {
			t.Fatalf("%s returned %v after %v; want DeadlineExceeded within %v", name, err, took, deadline+slack)
		}
	}
}
