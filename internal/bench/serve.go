package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"wdsparql"
	"wdsparql/internal/rdf"
	"wdsparql/internal/server"
)

// E13 measures the serving layer end to end: real HTTP requests against
// a wdserve endpoint (internal/server) streaming the E10 workload, with
// qps and latency percentiles per concurrency level, across the two
// execution modes of the engine — sequential and Parallel(w)
// enumeration over the frozen backend — plus an
// overload cell where the client herd far exceeds the admission gate,
// showing that shedding keeps the p99 of served requests bounded
// instead of queuing everyone into timeout territory.

// E13QueryText is the served query: the E9/E10 enumeration workload.
const E13QueryText = E10PatternText

// E13OverloadQueryText is the overload cell's query: a triple cross
// product paged from a deep offset, so each admitted request enumerates
// 1.5M rows before its page. Service time must comfortably exceed the
// Go scheduler's ~10ms preemption quantum: on a single-CPU host a
// shorter handler runs to completion unpreempted, requests serialize
// (in-flight never exceeds 1) and no herd can make the queue fill.
const E13OverloadQueryText = `((?x p0 ?y) AND ((?z p0 ?w) AND (?u p0 ?v)))`

// E13OverloadOffset is the page offset of the overload cell, sized to
// the streaming enumerator (~17 ns per skipped row on the dev
// container, ~25 ms per request) against the 1,728,000-row cross
// product of E9Data(128): deep enough for the quantum above, shallow
// enough to leave a full page.
const E13OverloadOffset = 1_500_000

// E13RowLimit bounds rows per request, so a cell's cost is requests ×
// limit rather than requests × |⟦P⟧G|.
const E13RowLimit = 512

// E13Cell is the outcome of one load cell: counts, wall time and the
// latency distribution of the successful requests.
type E13Cell struct {
	Requests int
	OK       int
	Shed     int // 503s: the admission controller refused
	Errors   int // anything else — transport errors, wrong status
	Wall     time.Duration
	Lats     []time.Duration
	Rows     int  // bindings per successful response
	Agree    bool // every 200 decoded to exactly wantRows bindings
}

// QPS is served throughput: successful requests per second of wall time.
func (c E13Cell) QPS() float64 {
	if c.Wall <= 0 {
		return 0
	}
	return float64(c.OK) / c.Wall.Seconds()
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of successful-request
// latency.
func (c E13Cell) Percentile(p float64) time.Duration {
	if len(c.Lats) == 0 {
		return 0
	}
	s := slices.Clone(c.Lats)
	slices.Sort(s)
	i := int(p*float64(len(s)-1) + 0.5)
	return s[i]
}

// E13StartServer runs a server over eng on an ephemeral local port and
// returns its base URL and a drain function. gate/queue/queueTimeout
// are the admission parameters under test.
func E13StartServer(eng *wdsparql.Engine, gate, queue int, queueTimeout time.Duration) (string, func(), error) {
	srv := server.New(server.Config{
		Engine:        eng,
		MaxConcurrent: gate,
		MaxQueue:      queue,
		QueueTimeout:  queueTimeout,
		MaxWorkers:    8,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// E13Load drives clients × perClient sequential GET requests at the
// endpoint and tallies the outcome. Every 200 is decoded and checked
// against wantRows; 503 is counted as shed (that is the admission
// controller doing its job, not an error).
func E13Load(base string, clients, perClient int, params url.Values, wantRows int) E13Cell {
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer httpc.CloseIdleConnections()

	v := url.Values{
		"query": {E13QueryText},
		"limit": {fmt.Sprint(E13RowLimit)},
	}
	for k, vals := range params {
		v[k] = vals
	}
	target := base + "/sparql?" + v.Encode()

	cell := E13Cell{Requests: clients * perClient, Rows: wantRows, Agree: true}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < perClient; r++ {
				t0 := time.Now()
				resp, err := httpc.Get(target)
				if err != nil {
					mu.Lock()
					cell.Errors++
					mu.Unlock()
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var doc struct {
						Results struct {
							Bindings []json.RawMessage `json:"bindings"`
						} `json:"results"`
						Truncated bool `json:"truncated"`
					}
					err := json.NewDecoder(resp.Body).Decode(&doc)
					lat := time.Since(t0)
					mu.Lock()
					if err != nil || doc.Truncated || len(doc.Results.Bindings) != wantRows {
						cell.Agree = false
						cell.Errors++
					} else {
						cell.OK++
						cell.Lats = append(cell.Lats, lat)
					}
					mu.Unlock()
				case http.StatusServiceUnavailable:
					mu.Lock()
					cell.Shed++
					mu.Unlock()
				default:
					mu.Lock()
					cell.Errors++
					mu.Unlock()
				}
				resp.Body.Close()
			}
		}()
	}
	close(start)
	wg.Wait()
	cell.Wall = time.Since(begin)
	return cell
}

// E13Serving builds the experiment table. n parameterises the served
// graph (the E9 Erdős–Rényi shape), workers the Parallel(w) mode, gate
// the admission width; each mode is swept over clientCounts with
// perClient requests each, and the final overload row throws
// overloadClients at the same gate with a short queue timeout.
func E13Serving(n, perClient, workers int, clientCounts []int, gate, overloadClients int) *Table {
	t := &Table{
		ID:    "E13",
		Title: fmt.Sprintf("wdserve load: streaming /sparql over |G|≈%d, gate %d, limit %d", 4*n, gate, E13RowLimit),
		Claim: "streams stay correct under concurrency; overload is shed with bounded p99, not queued into collapse",
		Header: []string{"mode", "clients", "gate", "req", "ok", "shed", "qps",
			"p50", "p99", "rows", "agree"},
	}
	ts := E9Data(n).Triples()

	// Expected bindings per request, from the engine directly.
	ref := wdsparql.NewEngine(rdf.GraphFromTriples(ts))
	q, err := ref.PrepareText(E13QueryText)
	if err != nil {
		panic(err)
	}
	wantRows, err := q.Count(context.Background(), wdsparql.Limit(E13RowLimit))
	if err != nil || wantRows == 0 {
		panic(fmt.Sprintf("empty E13 workload: %d, %v", wantRows, err))
	}
	q2, err := ref.PrepareText(E13OverloadQueryText)
	if err != nil {
		panic(err)
	}

	modes := []struct {
		name   string
		graph  *rdf.Graph
		params url.Values
	}{
		{"sequential", rdf.GraphFromTriples(ts), nil},
		{fmt.Sprintf("parallel(%d)", workers), rdf.GraphFromTriples(ts),
			url.Values{"workers": {fmt.Sprint(workers)}}},
	}
	addCell := func(mode string, clients int, cell E13Cell) {
		t.AddRow(mode, fmt.Sprint(clients), fmt.Sprint(gate),
			fmt.Sprint(cell.Requests), fmt.Sprint(cell.OK), fmt.Sprint(cell.Shed),
			fmt.Sprintf("%.0f", cell.QPS()),
			ms(cell.Percentile(0.50)), ms(cell.Percentile(0.99)),
			fmt.Sprint(cell.Rows), fmt.Sprint(cell.Agree && cell.Errors == 0))
	}
	for _, m := range modes {
		eng := wdsparql.NewEngine(m.graph, wdsparql.WithQueryCache(16))
		for _, clients := range clientCounts {
			// A patient queue: below-overload cells measure streaming
			// throughput, not shedding.
			base, stop, err := E13StartServer(eng, gate, 2*clients+gate, 30*time.Second)
			if err != nil {
				panic(err)
			}
			addCell(m.name, clients, E13Load(base, clients, perClient, m.params, wantRows))
			stop()
		}
	}

	// Overload: a herd far beyond the gate, each request expensive
	// (deep-offset cross-product page), against a short bounded queue.
	// The shed column is the point — the tail gets an immediate 503
	// while the p99 of what is served stays bounded by
	// gate-depth × service time + queue timeout instead of growing
	// with the herd.
	wantOverload, err := q2.Count(context.Background(),
		wdsparql.Limit(E13RowLimit), wdsparql.Offset(E13OverloadOffset))
	if err != nil || wantOverload == 0 {
		panic(fmt.Sprintf("empty E13 overload workload: %d, %v", wantOverload, err))
	}
	eng := wdsparql.NewEngine(rdf.GraphFromTriples(ts), wdsparql.WithQueryCache(16))
	base, stop, err := E13StartServer(eng, gate, gate, 25*time.Millisecond)
	if err != nil {
		panic(err)
	}
	cell := E13Load(base, overloadClients, perClient, url.Values{
		"query":  {E13OverloadQueryText},
		"offset": {fmt.Sprint(E13OverloadOffset)},
	}, wantOverload)
	stop()
	addCell("overload", overloadClients, cell)
	return t
}
