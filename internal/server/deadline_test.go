package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"wdsparql"
)

// A deadline holds inside the search. The dead end below is a cross
// product of two disjoint 30,000-triple stars under an equality FILTER
// no pair satisfies: the pushed filter rejects every one of its 9·10⁸
// candidate pairs, so no row — and no emit, where enumeration polls —
// is ever reached. Unpolled, the search runs well over 10 s; the
// searchers' own poll (every 1,024 nodes or filter rejections) must
// stop it at the deadline, at the drain's hard cancel, and on every
// worker of the parallel path.

const deadEndQuery = `(((?x knows ?y) AND (?z likes ?i)) FILTER (?y = ?i))`

// deadEndSlack bounds how long after its deadline a dead end may still
// run: one poll interval is microseconds, the rest is scheduling on a
// loaded machine (and the race detector).
const deadEndSlack = 500 * time.Millisecond

func deadEndEngine(t testing.TB, opts ...wdsparql.Option) *wdsparql.Engine {
	t.Helper()
	const n = 30000
	g := wdsparql.NewGraph()
	for i := 0; i < n; i++ {
		g.Add(wdsparql.Triple{S: wdsparql.IRI(fmt.Sprintf("s%d", i)), P: wdsparql.IRI("knows"), O: wdsparql.IRI(fmt.Sprintf("k%d", i))})
		g.Add(wdsparql.Triple{S: wdsparql.IRI(fmt.Sprintf("t%d", i)), P: wdsparql.IRI("likes"), O: wdsparql.IRI(fmt.Sprintf("l%d", i))})
	}
	return wdsparql.NewEngine(g, append(opts, wdsparql.WithQueryCache(8))...)
}

// getDeadEnd runs the dead end with the given timeout and checks the
// reply: a 200 whose document is valid and marked truncated. It returns
// how long the request took.
func getDeadEnd(t *testing.T, base, timeout string) time.Duration {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(sparqlURL(base, deadEndQuery, url.Values{"timeout": {timeout}}))
	if err != nil {
		t.Errorf("GET: %v", err)
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Errorf("status = %d (%s), want 200", resp.StatusCode, body)
		return 0
	}
	doc := decodeResults(t, resp.Body)
	if !doc.Truncated || len(doc.Results.Bindings) != 0 {
		t.Errorf("dead end: truncated=%v with %d bindings, want a truncated empty answer", doc.Truncated, len(doc.Results.Bindings))
	}
	return time.Since(start)
}

func TestDeadlineHoldsInsideSearch(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, base := startServer(t, Config{Engine: deadEndEngine(t, wdsparql.WithWorkers(workers))})
			if took := getDeadEnd(t, base, "50ms"); took > 50*time.Millisecond+deadEndSlack {
				t.Fatalf("a dead end with timeout=50ms answered after %v", took)
			}
			if s.timeouts.Load() != 1 {
				t.Fatalf("timeouts = %d, want 1", s.timeouts.Load())
			}
			waitFor(t, deadEndSlack, func() bool { return s.adm.executing() == 0 && s.inFlight.Load() == 0 })
		})
	}
}

// Eight dead ends at once fill the default gate; each must give its
// slot back at its deadline.
func TestDeadEndsLeaveGateEmpty(t *testing.T) {
	s, base := startServer(t, Config{Engine: deadEndEngine(t)})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if took := getDeadEnd(t, base, "50ms"); took > 50*time.Millisecond+4*deadEndSlack {
				t.Errorf("a dead end with timeout=50ms answered after %v", took)
			}
		}()
	}
	wg.Wait()
	waitFor(t, deadEndSlack, func() bool { return s.adm.executing() == 0 && s.inFlight.Load() == 0 })
	if s.timeouts.Load() != 8 {
		t.Fatalf("timeouts = %d, want 8", s.timeouts.Load())
	}
}

// The drain's hard cancel reaches a dead end with no deadline of its
// own: Shutdown returns within the drain plus one poll interval.
func TestShutdownEndsDeadEnd(t *testing.T) {
	s, base := startServer(t, Config{Engine: deadEndEngine(t)})
	go func() {
		resp, err := http.Get(sparqlURL(base, deadEndQuery, nil))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return s.adm.executing() == 1 })
	const drain = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > drain+deadEndSlack {
		t.Fatalf("Shutdown returned after %v, drain %v", took, drain)
	}
	if s.inFlight.Load() != 0 {
		t.Fatalf("in-flight = %d after Shutdown returned", s.inFlight.Load())
	}
}
