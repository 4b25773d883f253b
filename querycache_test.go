package wdsparql

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wdsparql/internal/ptree"
	"wdsparql/internal/sparql"
)

// The query-cache seam: LRU mechanics, the PrepareText identity
// contract (hit returns the same *PreparedQuery; distinct texts of the
// same pattern still share one analysis), miss-on-error, and
// concurrent use.

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache[int](2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before capacity was reached")
	}
	// a was just used, so inserting c must evict b (the LRU entry).
	c.add("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction although it was least recently used")
	}
	for key, want := range map[string]int{"a": 1, "c": 3} {
		if got, ok := c.get(key); !ok || got != want {
			t.Fatalf("get(%q) = %d, %v; want %d, true", key, got, ok, want)
		}
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	st := c.cacheStats()
	if st.Cap != 2 || st.Size != 2 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestLRUCacheFirstAddWins(t *testing.T) {
	c := newLRUCache[int](4)
	if got := c.add("k", 1); got != 1 {
		t.Fatalf("first add returned %d, want 1", got)
	}
	// A second add of the same key must return the already-cached
	// value: concurrent preparers all adopt one shared entry.
	if got := c.add("k", 2); got != 1 {
		t.Fatalf("second add returned %d, want the first value 1", got)
	}
}

func TestNilLRUCacheIsDisabled(t *testing.T) {
	var c *lruCache[int]
	if _, ok := c.get("k"); ok {
		t.Fatal("nil cache reported a hit")
	}
	if got := c.add("k", 7); got != 7 {
		t.Fatalf("nil cache add returned %d, want the passed value", got)
	}
	if st := c.cacheStats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

func TestPrepareTextCacheHitReturnsSameQuery(t *testing.T) {
	g := MustParseGraph("a p b .\nb q c .")
	e := NewEngine(g, WithQueryCache(8))
	const src = `((?x p ?y) OPT (?y q ?z))`
	q1, err := e.PrepareText(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.PrepareText(src)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("cache hit returned a distinct PreparedQuery")
	}
	st := e.QueryCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 || st.Cap != 8 {
		t.Fatalf("unexpected cache stats: %+v", st)
	}
	// The cached query must still answer correctly.
	n, err := q2.Count(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("Count = %d, %v; want 1, nil", n, err)
	}
}

func TestPrepareTextErrorsNotCached(t *testing.T) {
	e := NewEngine(nil, WithQueryCache(8))
	for _, src := range []string{
		"((?x p", // parse error
		`((?x p ?y) OPT (?y q ?z)) AND (?z r ?w)`, // not well-designed: ?z escapes the OPT
	} {
		if _, err := e.PrepareText(src); err == nil {
			t.Fatalf("PrepareText(%q) succeeded, want error", src)
		}
	}
	if st := e.QueryCacheStats(); st.Size != 0 {
		t.Fatalf("errors occupied cache slots: %+v", st)
	}
}

func TestPrepareTextWithoutCache(t *testing.T) {
	e := NewEngine(MustParseGraph("a p b ."))
	q, err := e.PrepareText(`(?x p ?y)`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Count(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("Count = %d, %v; want 1, nil", n, err)
	}
	if st := e.QueryCacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache has non-zero stats: %+v", st)
	}
}

func TestPrepareTextConcurrent(t *testing.T) {
	g := MustParseGraph("a p b .\nb p c .\nc p a .")
	e := NewEngine(g, WithQueryCache(4))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Two distinct texts so gets and adds interleave.
			src := fmt.Sprintf(`(?x p ?y%d)`, i%2)
			for j := 0; j < 50; j++ {
				q, err := e.PrepareText(src)
				if err != nil {
					t.Error(err)
					return
				}
				if n, err := q.Count(context.Background()); err != nil || n != 3 {
					t.Errorf("Count = %d, %v; want 3, nil", n, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := e.QueryCacheStats()
	if st.Size != 2 {
		t.Fatalf("cache size = %d, want 2: %+v", st.Size, st)
	}
	if st.Hits+st.Misses != 8*50 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*50)
	}
}

// TestPrepareTextConcurrentEviction hammers a tiny LRU with far more
// distinct query texts than it can hold, from many goroutines, while a
// sampler reads stats throughout. Under -race this pins the locking
// discipline of the eviction path; the assertions pin that occupancy
// never exceeds the capacity (neither mid-run nor at the end) and that
// the counters stay consistent — every PrepareText call is exactly one
// hit or one miss, and every distinct text must have missed at least
// once.
func TestPrepareTextConcurrentEviction(t *testing.T) {
	g := MustParseGraph("a p b .\nb p c .\nc p a .")
	const (
		capacity = 4
		workers  = 8
		iters    = 200
		distinct = 32 // texts in flight: 8× the capacity, so eviction churns
	)
	e := NewEngine(g, WithQueryCache(capacity))

	stop := make(chan struct{})
	var overCap atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := e.QueryCacheStats(); st.Size > capacity {
				overCap.Store(int64(st.Size))
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				src := fmt.Sprintf(`(?x p ?y%d)`, (w*iters+j)%distinct)
				q, err := e.PrepareText(src)
				if err != nil {
					t.Error(err)
					return
				}
				if n, err := q.Count(context.Background()); err != nil || n != 3 {
					t.Errorf("Count = %d, %v; want 3, nil", n, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	if n := overCap.Load(); n != 0 {
		t.Fatalf("cache occupancy reached %d, capacity %d", n, capacity)
	}
	st := e.QueryCacheStats()
	if st.Size > capacity || st.Size == 0 {
		t.Fatalf("final size = %d, want 1..%d", st.Size, capacity)
	}
	if st.Hits+st.Misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*iters)
	}
	if st.Misses < distinct {
		t.Fatalf("misses = %d, want ≥ %d (every distinct text misses at least once)", st.Misses, distinct)
	}
}

func TestAnalysisCacheLRUSharing(t *testing.T) {
	// Two engines preparing the same pattern text must share one
	// analysis (the width computations run at most once per pattern).
	p := MustParsePattern(`((?x p ?y) OPT (?y q ?z))`)
	e1 := NewEngine(MustParseGraph("a p b ."))
	e2 := NewEngine(MustParseGraph("c p d ."))
	q1, err := e1.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e2.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	if q1.an != q2.an {
		t.Fatal("engines did not share the memoised analysis")
	}
}

// A new text of a cached shape is not analysed: on a warmed engine,
// PrepareText of a text never seen before lexes it, finds its
// template's analysis, instantiates the template's forest and compiles
// it. Parsing, analysing and compiling such a text cost 372 objects
// (Go 1.24).
func TestPrepareTemplateHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	eng := NewEngine(starEngine(1<<10, false, "q", "r", "s").Graph(), WithQueryCache(16))
	const runs = 200
	texts := make([]string, runs+1)
	for i := range texts {
		texts[i] = fmt.Sprintf(`(((((?x p ?y) OPT (?x q ?a)) OPT (?x r ?b)) OPT (?x s ?c)) FILTER ?y = o%d)`, i)
	}
	if _, err := eng.PrepareText(texts[runs]); err != nil { // analyses the template
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, src := range texts[:runs] {
		if _, err := eng.PrepareText(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	allocs := (ms.Mallocs - before) / runs
	if st := eng.QueryCacheStats(); st.TemplateHits < runs {
		t.Fatalf("want %d template hits: %+v", runs, st)
	}
	if allocs > 86 {
		t.Fatalf("a new text of a cached shape allocates %d objects, want ≤ 86", allocs)
	}
}

// Texts of one shape share a template's analysis, and the exact-text
// counters keep counting texts. The analysis cache is package-wide, so
// the template lookups are checked as a sum: the first text of the
// shape finds the analysis or makes it, the second finds it.
func TestPrepareTextTemplateCounters(t *testing.T) {
	e := NewEngine(MustParseGraph("a tcp b .\nb tcp c .\nc tcq a ."), WithQueryCache(8))
	for _, src := range []string{`((a tcp ?y) OPT (?y tcp ?z))`, `((b tcp ?y) OPT (?y tcp ?z))`, `((b tcp ?y) OPT (?y tcp ?z))`} {
		if _, err := e.PrepareText(src); err != nil {
			t.Fatal(err)
		}
	}
	st := e.QueryCacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.TemplateHits < 1 || st.TemplateHits+st.TemplateMisses != 2 || st.Size != 2 || st.Cap != 8 {
		t.Fatalf("stats after three texts of one shape: %+v", st)
	}
	// Texts whose wdpf order depends on the constants share the template
	// too: each gets the forest its own translation gives.
	for _, src := range []string{`((a tcp ?y) AND (b tcp ?y))`, `((b tcp ?y) AND (a tcp ?y))`} {
		q, err := e.PrepareText(src)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := q.Explain().Template, `((>0 tcp ?y) AND (>1 tcp ?y))`; got != want {
			t.Fatalf("%s: template key %q, want %q", src, got, want)
		}
		if got, want := q.Forest().String(), ptree.MustWDPF(sparql.MustParse(src)).String(); got != want {
			t.Fatalf("%s: forest\n%s\nwant\n%s", src, got, want)
		}
	}
	if st := e.QueryCacheStats(); st.TemplateHits < 2 || st.TemplateHits+st.TemplateMisses != 4 {
		t.Fatalf("stats after two texts of a second shape: %+v", st)
	}
	q, err := e.PrepareText(`((b tcp ?y) AND (b tcq ?y))`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Explain().Template; got != `((>0 tcp ?y) AND (>0 tcq ?y))` {
		t.Fatalf("template key %q", got)
	}
}

// A template key is not a query: sent as a text, it reaches no cached
// entry and fails to parse, whether or not its shape was prepared
// before.
func TestPrepareTextRejectsTemplateKey(t *testing.T) {
	e := NewEngine(MustParseGraph("a p b .\nb p c ."), WithQueryCache(8))
	q, err := e.PrepareText(`((a p ?y) OPT (?y p ?z))`)
	if err != nil {
		t.Fatal(err)
	}
	key := q.Explain().Template
	if key != `((>0 p ?y) OPT (?y p ?z))` {
		t.Fatalf("template key %q", key)
	}
	for i := 0; i < 2; i++ {
		if q, err := e.PrepareText(key); err == nil {
			t.Fatalf("PrepareText(%q) prepared %s, want a parse error", key, q.Forest())
		}
	}
	if st := e.QueryCacheStats(); st.Size != 1 {
		t.Fatalf("a rejected key occupies the cache: %+v", st)
	}
}

// Texts of one shape, prepared and executed from many goroutines at
// once: they share the template's analysis (its widths computed on
// first use), and a text's prepared query its lazily built join plans
// and pebble games, so under -race this pins that sharing.
func TestPrepareTextTemplateConcurrent(t *testing.T) {
	g := MustParseGraph("a p b .\nb p c .\nc p a .\nb q c .\nc q a .")
	for _, capacity := range []int{0, 2} {
		e := NewEngine(g.Clone(), WithQueryCache(capacity))
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 30; j++ {
					subj := []string{"a", "b", "c", "d"}[(i+j)%4]
					q, err := e.PrepareText(fmt.Sprintf(`((%s p ?y) OPT ((?y q ?z) OPT (?z p ?w)))`, subj))
					if err != nil {
						t.Error(err)
						return
					}
					want := map[string]int{"a": 1, "b": 1, "c": 1, "d": 0}[subj]
					if n, err := q.Count(context.Background()); err != nil || n != want {
						t.Errorf("%s: Count = %d, %v; want %d", subj, n, err, want)
						return
					}
					if ok, err := q.Ask(context.Background(), Mapping{"y": "b", "z": "c", "w": "a"}); err != nil || ok != (subj == "a") {
						t.Errorf("%s: Ask = %v, %v", subj, ok, err)
						return
					}
					_ = q.Explain()
				}
			}(i)
		}
		wg.Wait()
	}
}
