package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"testing"

	"wdsparql"
)

// Two texts of one shape: /stats shows two exact-text misses, the
// second of which finds the template's analysis (the first makes it,
// or finds it when an earlier engine in this process made it), and
// explain names the template key both share.
func TestStatsTemplateCounters(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 8)})
	for _, subj := range []string{"s1", "s2"} {
		if n := countBindings(t, base, "(("+subj+" p ?y) OPT (?y p ?tz))"); n != 1 {
			t.Fatalf("%s: %d bindings, want 1", subj, n)
		}
	}
	qc := serverStats(t, base).QueryCache
	if qc.Hits != 0 || qc.Misses != 2 || qc.TemplateHits < 1 || qc.TemplateHits+qc.TemplateMisses != 2 {
		t.Fatalf("query_cache after two texts of one shape: %+v", qc)
	}
	if plan := explainPlan(t, base, "((s3 p ?y) OPT (?y p ?tz))"); plan.Template != "((>0 p ?y) OPT (?y p ?tz))" {
		t.Fatalf("explain template = %q", plan.Template)
	}
}

// A template key sent as a query is a syntax error (400), also after
// its shape was served and while explain shows the key.
func TestTemplateKeyIsNoQuery(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 8)})
	key := explainPlan(t, base, "((s1 p ?y) OPT (?y p ?z))").Template
	if key != "((>0 p ?y) OPT (?y p ?z))" {
		t.Fatalf("explain template = %q", key)
	}
	for _, params := range []url.Values{nil, {"explain": {"1"}}} {
		resp, err := http.Get(sparqlURL(base, key, params))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q (%v): status %d, want 400: %s", key, params, resp.StatusCode, body)
		}
	}
}

func explainPlan(t *testing.T, base, query string) wdsparql.QueryPlan {
	t.Helper()
	resp, err := http.Get(sparqlURL(base, query, url.Values{"explain": {"1"}}))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var plan wdsparql.QueryPlan
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatalf("explain body %q: %v", body, err)
	}
	return plan
}
