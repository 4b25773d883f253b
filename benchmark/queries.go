package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// op is one request of a workload's schedule: a query text plus the
// execution window and result format it is sent with.
type op struct {
	Text   string
	Format string // "json" or "tsv"
	Limit  int    // < 0: none
	Offset int
}

// query renders the op as the /sparql query string.
func (o op) query() string {
	v := url.Values{"query": {o.Text}, "format": {o.Format}}
	if o.Limit >= 0 {
		v.Set("limit", strconv.Itoa(o.Limit))
	}
	if o.Offset > 0 {
		v.Set("offset", strconv.Itoa(o.Offset))
	}
	return v.Encode()
}

// window is the number of rows the op returns when its text has total
// solutions.
func (o op) window(total int) int {
	n := max(0, total-o.Offset)
	if o.Limit >= 0 {
		n = min(n, o.Limit)
	}
	return n
}

// lookupTemplate renders one small-result query around a Zipf-drawn
// person; Filter marks the templates ingest_read leaves out.
type lookupTemplate struct {
	Name   string
	Weight int // ops per block of 100 (75 without the filters), after Han et al.'s operator shares
	Filter bool
	Render func(rng *rand.Rand, person string, sc scale) string
}

// The OPT-star arms, all over ?y; a star op draws how many it uses, so
// one template yields three distinct shapes per constant.
var starArms = []string{"(?y worksAt ?o)", "(?y email ?m)", "(?y livesIn ?c)", "(?y likes ?i)"}

var lookupTemplates = []lookupTemplate{
	{Name: "star", Weight: 25, Render: func(rng *rand.Rand, p string, _ scale) string {
		q := "(" + p + " knows ?y)"
		for _, arm := range starArms[:2+rng.Intn(3)] {
			q = "(" + q + " OPT " + arm + ")"
		}
		return q
	}},
	{Name: "chain", Weight: 20, Render: func(rng *rand.Rand, p string, _ scale) string {
		q := "((" + p + " knows ?y) AND (?y knows ?z))"
		if rng.Intn(2) == 0 {
			q = "(" + q + " AND (?z worksAt ?o))"
		}
		return q
	}},
	{Name: "tree", Weight: 10, Render: func(_ *rand.Rand, p string, _ scale) string {
		return "((" + p + " knows ?y) OPT ((?y worksAt ?o) OPT (?o locatedIn ?c)))"
	}},
	{Name: "filter_eq", Weight: 10, Filter: true, Render: func(rng *rand.Rand, p string, sc scale) string {
		return "(((" + p + " knows ?y) AND (?y livesIn ?c)) FILTER (?c = city" + strconv.Itoa(rng.Intn(min(8, sc.Cities))) + "))"
	}},
	{Name: "filter_neq", Weight: 5, Filter: true, Render: func(rng *rand.Rand, p string, sc scale) string {
		return "(((" + p + " knows ?y) AND (?y worksAt ?o)) FILTER (?o != org" + strconv.Itoa(rng.Intn(min(8, sc.Orgs))) + "))"
	}},
	{Name: "filter_bound", Weight: 10, Filter: true, Render: func(_ *rand.Rand, p string, _ scale) string {
		return "(((" + p + " knows ?y) OPT (?y email ?m)) FILTER BOUND(?m))"
	}},
	{Name: "distinct", Weight: 10, Render: func(_ *rand.Rand, p string, _ scale) string {
		return "SELECT DISTINCT ?o WHERE ((" + p + " knows ?y) AND (?y worksAt ?o))"
	}},
	{Name: "union", Weight: 10, Render: func(_ *rand.Rand, p string, _ scale) string {
		return "(((" + p + " knows ?y) OPT (?y worksAt ?o)) UNION ((" + p + " worksAt ?o) OPT (?o locatedIn ?c)))"
	}},
}

// scanTexts are the six fixed large-result queries of scan_stream and
// page_first, one per enumeration feature. The six have very different
// costs, so a latency percentile is the cost of whichever text sits at
// that rank: the weights (ops per block of 20, see blockDraw) put the median in the
// middle of one text's ops and the 95th percentile in the middle of
// another's, never on the boundary between two, where it would flip
// from run to run.
var scanTexts = []struct {
	Name   string
	Weight int
	Text   string
}{
	{"opt_chain", 3, "((?x livesIn city1) OPT ((?x knows ?y) OPT ((?y worksAt ?o) OPT (?o locatedIn ?c))))"},
	{"sibling_product", 4, "(((?x livesIn city0) OPT (?x knows ?y)) OPT (?x likes ?i))"},
	{"select_distinct", 6, "SELECT DISTINCT ?o ?c WHERE ((?x worksAt ?o) AND (?x livesIn ?c))"},
	{"wide_star", 3, "((((?x type Person) OPT (?x worksAt ?o)) OPT (?x email ?m)) OPT (?x livesIn ?c))"},
	{"union_dedup", 2, "(((?x worksAt ?o) OPT (?x email ?m)) UNION ((?x worksAt ?o) OPT (?o locatedIn ?c)))"},
	{"filter_scan", 2, "((?x likes ?i) FILTER (?i != item0))"},
}

// blockDraw returns a draw over len(weights) choices that is exact per
// block: every run of sum(weights) draws holds choice i weights[i]
// times, in seeded random order. With a handful of very unequal ops, an
// independent draw per op would make the op mix, and with it every
// throughput and percentile, vary from seed to seed for no reason the
// program under test has anything to do with.
func blockDraw(rng *rand.Rand, weights []int) func() int {
	var block []int
	for i, w := range weights {
		for ; w > 0; w-- {
			block = append(block, i)
		}
	}
	at := len(block)
	return func() int {
		if at == len(block) {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			at = 0
		}
		at++
		return block[at-1]
	}
}

// scanDraw draws scan texts by weight.
func scanDraw(rng *rand.Rand) func() string {
	weights := make([]int, len(scanTexts))
	for i, s := range scanTexts {
		weights[i] = s.Weight
	}
	draw := blockDraw(rng, weights)
	return func() string { return scanTexts[draw()].Text }
}

// schedule is the seeded op stream of one client of one workload: each
// call yields the next op. Two schedules built from the same arguments
// yield the same ops.
type schedule func() op

// scanOp is how scan_stream and page_first send a scan text: the whole
// result as TSV, or its first hundred rows as JSON.
func scanOp(workload, text string) op {
	if workload == "page_first" {
		return op{Text: text, Format: "json", Limit: 100}
	}
	return op{Text: text, Format: "tsv", Limit: -1}
}

// scheduleSeed separates the streams of workloads and clients that
// share one run seed.
func scheduleSeed(seed int64, workload string, client int) int64 {
	h := seed*1000003 + int64(client)*7919
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return h
}

func newSchedule(seed int64, workload string, client int, sc scale) (schedule, error) {
	rng := rand.New(rand.NewSource(scheduleSeed(seed, workload, client)))
	switch workload {
	case "lookup_mix":
		return lookupOps(rng, sc, true), nil
	case "ingest_read":
		return lookupOps(rng, sc, false), nil
	case "scan_stream":
		text := scanDraw(rng)
		return func() op { return scanOp(workload, text()) }, nil
	case "page_first":
		text := scanDraw(rng)
		deep := zipf(rng, 1.1, 1, 10000)
		return func() op {
			o := scanOp(workload, text())
			if rng.Intn(10) >= 7 {
				o.Offset = 1 + deep()
			}
			return o
		}, nil
	}
	return nil, fmt.Errorf("no HTTP schedule for workload %q", workload)
}

// lookupOps draws a template by weight and a person by Zipf(1.1) over
// the whole population: a few hot constants repeat (prepared-cache
// hits), the long tail does not (misses).
func lookupOps(rng *rand.Rand, sc scale, filters bool) schedule {
	var pool []lookupTemplate
	var weights []int
	for _, t := range lookupTemplates {
		if filters || !t.Filter {
			pool = append(pool, t)
			weights = append(weights, t.Weight)
		}
	}
	template := blockDraw(rng, weights)
	person := zipf(rng, 1.1, 1, sc.Persons)
	return func() op {
		t := pool[template()]
		return op{Text: t.Render(rng, "person"+strconv.Itoa(person()), sc), Format: "json", Limit: -1}
	}
}
