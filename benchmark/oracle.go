package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"

	"wdsparql"
	"wdsparql/internal/ingest"
	"wdsparql/internal/rdf"
)

// oracle is the in-process engine the benchmark checks the server's
// answers against. It is built from the same generated file the server
// loaded and never talks to the server.
type oracle struct {
	eng *wdsparql.Engine
}

// loadGraph parses an N-Triples file with the repository's bulk loader.
func loadGraph(path string) (*wdsparql.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ingest.Load(f, ingest.Options{})
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return g, nil
}

func newOracle(path string) (*oracle, error) {
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}
	return &oracle{eng: wdsparql.NewEngine(g)}, nil
}

func (o *oracle) prepare(text string) (wdsparql.Pattern, *wdsparql.PreparedQuery, error) {
	p, err := wdsparql.ParsePattern(text)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %q: %w", text, err)
	}
	q, err := o.eng.Prepare(p)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %q: %w", text, err)
	}
	return p, q, nil
}

// counts returns |⟦text⟧G| for every distinct text, computed on all
// CPUs: it runs after the timed window, when the server is idle.
func (o *oracle) counts(texts []string) (map[string]int, error) {
	out := make(map[string]int, len(texts))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for text := range next {
				n := 0
				_, q, err := o.prepare(text)
				if err == nil {
					n, err = q.Count(context.Background())
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[text] = n
				mu.Unlock()
			}
		}()
	}
	for _, text := range texts {
		next <- text
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// sameRows reports whether the server's decoded reply and a reference
// solution set are the same set of mappings.
func sameRows(got []map[string]string, want *wdsparql.MappingSet) bool {
	if len(got) != want.Len() {
		return false
	}
	seen := rdf.NewMappingSet()
	for _, m := range got {
		mm := wdsparql.Mapping(m)
		if !want.Contains(mm) || !seen.Add(mm) {
			return false
		}
	}
	return true
}

// checkRowSets fetches each op from the server in full and requires
// exact row-set agreement with the oracle's answer for the same window
// (both enumerate in the engine's one deterministic order, so a window
// is well defined). For the first nRef ops, which must be unwindowed, it
// also requires agreement with the compositional Pérez-et-al.
// evaluation, which shares no code with the row pipeline. It returns a
// description of every disagreement.
func (o *oracle) checkRowSets(hc *http.Client, base string, ops []op, nRef int) []string {
	var bad []string
	for i, op := range ops {
		got, err := fetchMappings(hc, base, op)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", op.Text, err))
			continue
		}
		p, q, err := o.prepare(op.Text)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		want, err := q.All(context.Background(), wdsparql.Limit(op.Limit), wdsparql.Offset(op.Offset))
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", op.Text, err))
			continue
		}
		if !sameRows(got, want) {
			bad = append(bad, fmt.Sprintf("%s limit=%d offset=%d: server returned %d rows, engine %d, or the sets differ",
				op.Text, op.Limit, op.Offset, len(got), want.Len()))
			continue
		}
		if i < nRef {
			if ref := wdsparql.EvalCompositional(p, o.eng.Graph()); !sameRows(got, ref) {
				bad = append(bad, fmt.Sprintf("%s: server returned %d rows, compositional reference %d, or the sets differ",
					op.Text, len(got), ref.Len()))
			}
		}
	}
	return bad
}
