package wdsparql

// This file implements the query-cache seam of the engine: one small
// mutex-guarded LRU used at two levels of the prepare pipeline, which
// analyses per template — a query text with its constants lifted to
// parameters (sparql.TemplateKey) — and not per text.
//
//   - The package-wide analysis cache (engine.go, analyze and
//     analyzeTemplate) memoises the graph-independent static analysis
//     per canonical pattern text or template key. The analysis of a
//     template is the analysis of every text lifted to it, so engines,
//     generations and texts of one shape share one: a new text of a
//     known shape costs the key pass and compiling its instantiated
//     forest, not parse + analysis + compilation.
//   - The per-engine cache (WithQueryCache, PrepareText) holds prepared
//     queries keyed by the exact request text, so a repeated text costs
//     one map probe. It holds nothing else: a key the client sends
//     reaches no entry but the one its own text prepared. Its counters
//     are the engine's: Hits/Misses count exact-text lookups,
//     TemplateHits/TemplateMisses the template analyses the exact
//     misses found or made.

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lruCache is a string-keyed LRU with hit/miss counters. A nil
// *lruCache is a valid, always-missing cache, so callers need no
// enabled-or-not branches. Safe for concurrent use.
type lruCache[V any] struct {
	mu sync.Mutex
	// capacity is fixed at construction; ll's front is the most
	// recently used entry, and inserts beyond capacity evict ll.Back().
	capacity int
	entries  map[string]*list.Element
	ll       *list.List

	hits   atomic.Uint64
	misses atomic.Uint64

	// The engine cache's template counters; see CacheStats.
	templateHits, templateMisses atomic.Uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRUCache returns an LRU holding at most capacity entries, or nil
// (the disabled cache) when capacity ≤ 0.
func newLRUCache[V any](capacity int) *lruCache[V] {
	if capacity <= 0 {
		return nil
	}
	return &lruCache[V]{
		capacity: capacity,
		entries:  make(map[string]*list.Element, capacity),
		ll:       list.New(),
	}
}

// get returns the cached value for key, promoting it to most recently
// used, and records the hit or miss.
func (c *lruCache[V]) get(key string) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// countTemplate records whether an exact miss found its template's
// analysis cached.
func (c *lruCache[V]) countTemplate(hit bool) {
	switch {
	case c == nil:
	case hit:
		c.templateHits.Add(1)
	default:
		c.templateMisses.Add(1)
	}
}

// add inserts key→val, evicting the least recently used entry beyond
// capacity, and returns the value cached under key. When a concurrent
// insert won the race, the first value wins and is returned — callers
// adopt it, so every holder of the key shares one cached value (the
// analysis cache relies on this to run the exponential width
// computations at most once per pattern).
func (c *lruCache[V]) add(key string, val V) V {
	if c == nil {
		return val
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	c.entries[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.entries, last.Value.(*lruEntry[V]).key)
	}
	return val
}

// len returns the current number of entries.
func (c *lruCache[V]) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats reports the state of an engine's query cache: cumulative
// counters since the engine was built, current occupancy (prepared
// texts) and the configured capacity. All zero when the cache is
// disabled.
//
// Hits and Misses count PrepareText's exact-text lookups. Each miss
// with a constant to lift then looks up its template's analysis in the
// package-wide analysis cache: TemplateHits find it and only compile
// the text's forest, TemplateMisses analyse the template first. The
// analysis cache is shared, so a shape another engine (or an earlier
// generation) analysed is a hit here.
type CacheStats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	TemplateHits   uint64 `json:"template_hits"`
	TemplateMisses uint64 `json:"template_misses"`
	Size           int    `json:"size"`
	Cap            int    `json:"cap"`
}

func (c *lruCache[V]) cacheStats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		TemplateHits:   c.templateHits.Load(),
		TemplateMisses: c.templateMisses.Load(),
		Size:           c.len(),
		Cap:            c.capacity,
	}
}
