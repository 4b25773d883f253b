package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"testing"

	"wdsparql"
)

// explain=1 returns the compiled query plan as JSON instead of
// evaluating — same admission path, no result stream.
func TestExplainEndpoint(t *testing.T) {
	s, base := startServer(t, Config{Engine: testEngine(t, 6)})
	resp, err := http.Get(sparqlURL(base, crossQuery, url.Values{"explain": {"1"}}))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %q)", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var plan wdsparql.QueryPlan
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatalf("explain body %q is not a QueryPlan: %v", body, err)
	}
	if len(plan.Trees) == 0 || len(plan.Trees[0].Order) == 0 {
		t.Fatalf("explain plan is empty: %+v", plan)
	}
	if plan.Trees[0].Order[0].Pattern == "" {
		t.Fatal("explain step did not render the pattern")
	}
	if plan.Ask == nil || plan.Ask.Algorithm != "auto" || plan.Ask.WidthNote == "" {
		t.Fatalf("explain must carry the ask section of the default engine: %+v", plan.Ask)
	}
	if s.queries.Load() == 0 {
		t.Fatal("explain request not counted as a query")
	}
}

// explain=1 names how a UNION drops rows both arms answer: by
// membership test, by the seen-set when an arm carries a FILTER, by
// DISTINCT's projected set; a UNION-free query omits the field.
func TestExplainDedup(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 4)})
	for _, c := range []struct{ query, want string }{
		{`((?x p ?y) UNION (?y p ?x))`, "membership"},
		{`(((?x p ?y) FILTER ?y != o1) UNION (?y p ?x))`, "set"},
		{`SELECT DISTINCT ?x WHERE ((?x p ?y) UNION (?y p ?x))`, "distinct"},
		{crossQuery, ""},
	} {
		resp, err := http.Get(sparqlURL(base, c.query, url.Values{"explain": {"1"}}))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200 (body %q)", c.query, resp.StatusCode, body)
		}
		var plan wdsparql.QueryPlan
		if err := json.Unmarshal(body, &plan); err != nil {
			t.Fatalf("%s: explain body %q is not a QueryPlan: %v", c.query, body, err)
		}
		if plan.Dedup != c.want {
			t.Fatalf("%s: dedup = %q, want %q", c.query, plan.Dedup, c.want)
		}
	}
}

// A malformed explain value is a 400, and explain still runs the
// normal failure paths (bad query → 400 before any plan is built).
func TestExplainRejectsBadInput(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 4)})
	for _, u := range []string{
		sparqlURL(base, crossQuery, url.Values{"explain": {"yes"}}),
		sparqlURL(base, `((?x p`, url.Values{"explain": {"1"}}),
	} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status = %d, want 400", u, resp.StatusCode)
		}
	}
}

// explain=1 renders a constant absent from the graph as itself: over
// s0 p o0 (whose TermID 0 is s0) and over an empty engine, where no
// TermID 0 exists at all and rendering through it used to panic.
func TestExplainAbsentConstant(t *testing.T) {
	for _, eng := range []*wdsparql.Engine{testEngine(t, 1), wdsparql.NewEngine(nil)} {
		_, base := startServer(t, Config{Engine: eng})
		resp, err := http.Get(sparqlURL(base, `(absent p ?z)`, url.Values{"explain": {"1"}}))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200 (body %q)", resp.StatusCode, body)
		}
		var plan wdsparql.QueryPlan
		if err := json.Unmarshal(body, &plan); err != nil {
			t.Fatalf("explain body %q is not a QueryPlan: %v", body, err)
		}
		if got := plan.Trees[0].Patterns; len(got) != 1 || got[0] != "absent p ?z" {
			t.Fatalf("explain renders %q, want [absent p ?z]", got)
		}
	}
}
