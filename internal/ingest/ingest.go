package ingest

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"wdsparql/internal/rdf"
)

// lineError wraps a parse error with its absolute line number, in the
// exact shape of the sequential reader's errors.
func lineError(line int, err error) error {
	return fmt.Errorf("rdf: line %d: %w", line, err)
}

// Options configures a Load.
type Options struct {
	// Workers is the decode pool size; ≤ 0 means GOMAXPROCS.
	Workers int
	// ChunkBytes is the target chunk size; ≤ 0 means DefaultChunkBytes.
	ChunkBytes int
	// MaxLine bounds a single input line, like rdf.ReadGraphMaxLine;
	// ≤ 0 means rdf.MaxLineLen.
	MaxLine int
	// Progress, when non-nil, receives (raw input bytes consumed,
	// distinct triples appended) with the same contract as
	// rdf.ReadGraphWithProgress.
	Progress rdf.ProgressFunc
}

// progressStride matches the sequential reader's callback cadence.
const progressStride = 1 << 14

// ltriple is a triple encoded in a worker's private ID space.
type ltriple [3]uint32

// localDict is a worker-private interner. It deliberately does not
// reuse rdf.Dict: worker IDs are throwaway coordinates that exist only
// until the merge pass rewrites them, and keeping the type local keeps
// the remap contract (dense uint32 from 0, insertion-ordered strs) in
// one file.
type localDict struct {
	id   map[string]uint32
	strs []string
}

// intern returns the ID of the term b; the lookup of a known term
// converts without allocating, so only a new term costs its string.
func (d *localDict) intern(b []byte) uint32 {
	if id, ok := d.id[string(b)]; ok {
		return id
	}
	s := string(b)
	id := uint32(len(d.strs))
	d.id[s] = id
	d.strs = append(d.strs, s)
	return id
}

// decoded is one chunk after the parallel decode stage: triples in the
// worker's ID space, plus a snapshot of the worker dictionary's string
// table at decode time. The snapshot is a slice header: the worker
// appends to its table while the collector reads earlier entries, and
// that is safe precisely because entries below the snapshot length are
// never rewritten and Go strings are immutable.
type decoded struct {
	index   int
	worker  int
	triples []ltriple
	strs    []string
	err     error // first parse error of the chunk, with absolute line number
}

// countReader counts raw bytes consumed; atomically, because the
// chunker goroutine advances it while the collector reports progress.
type countReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Load reads the rdf.ReadGraph format through the parallel pipeline
// and returns a sealed graph. The result — dictionary IDs, insertion
// order, every enumeration stream — is identical to what
// rdf.ReadGraph (plus Freeze) would have built
// from the same input, and the first syntax error in input order is
// reported with the same line numbering. Gzipped input is detected by
// its magic bytes and decompressed before chunking (decompression is
// inherently sequential; parsing is not).
func Load(r io.Reader, opt Options) (*rdf.Graph, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	cr := &countReader{r: r}
	in, closer, err := openReader(cr)
	if err != nil {
		return nil, err
	}
	if closer != nil {
		defer closer.Close()
	}
	ck := NewChunker(in, opt.ChunkBytes, opt.MaxLine)
	// At most 2·workers+1 chunk buffers are alive at once — one being
	// filled, workers queued in chunks, workers being parsed — so a free
	// list that size keeps every one of them in circulation.
	ck.free = make(chan []byte, 2*workers+1)

	chunks := make(chan Chunk, workers)
	results := make(chan decoded, workers)
	done := make(chan struct{})
	var chunkErr error

	// Stage 1: chunking. The error (read failure, overlong line, gzip
	// corruption) is captured and surfaces after every produced chunk
	// has been merged — parse errors in earlier input win.
	go func() {
		defer close(chunks)
		for {
			ch, err := ck.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				chunkErr = err
				return
			}
			select {
			case chunks <- ch:
			case <-done:
				return
			}
		}
	}()

	// Stage 2: the decode pool. Each worker owns a persistent localDict
	// reused across all its chunks, so repeated terms intern once per
	// worker, not once per chunk.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ld := &localDict{id: map[string]uint32{}}
			for ch := range chunks {
				dec := parseChunk(ch, w, ld)
				// Nothing aliases the chunk now: intern copied every
				// new term out of it.
				ck.release(ch)
				select {
				case results <- dec:
				case <-done:
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Stage 3: in-order merge/remap. abort tears the pipeline down on
	// the first in-order error without leaking goroutines: closing done
	// unblocks producers, draining results unblocks senders in flight.
	abort := func() {
		close(done)
		for range results {
		}
	}

	b := rdf.NewGraphBuilder(0)
	global := b.Dict()
	remaps := make([][]rdf.TermID, workers)
	pending := map[int]decoded{}
	next := 0
	lastReport := 0

	for dec := range results {
		pending[dec.index] = dec
		for {
			d, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if d.err != nil {
				abort()
				return nil, d.err
			}
			rm := remaps[d.worker]
			for _, lt := range d.triples {
				var t rdf.IDTriple
				for i, lid := range lt {
					for int(lid) >= len(rm) {
						rm = append(rm, ^rdf.TermID(0))
					}
					g := rm[lid]
					if g == ^rdf.TermID(0) {
						// First input-order use of this term: intern now,
						// so global IDs come out in sequential order.
						g = global.InternIRI(d.strs[lid])
						rm[lid] = g
					}
					t[i] = g
				}
				b.AddID(t)
			}
			remaps[d.worker] = rm
			if opt.Progress != nil && b.Len()-lastReport >= progressStride {
				lastReport = b.Len()
				opt.Progress(cr.n.Load(), b.Len())
			}
		}
	}
	if chunkErr != nil {
		return nil, chunkErr
	}
	if opt.Progress != nil {
		opt.Progress(cr.n.Load(), b.Len())
	}
	return b.Graph(), nil
}

// parseChunk decodes one chunk into the worker's ID space. On a parse
// error it stops at the offending line and reports it with its
// absolute line number; triples already decoded are discarded by the
// collector together with the whole load.
func parseChunk(ch Chunk, worker int, ld *localDict) decoded {
	dec := decoded{index: ch.Index, worker: worker, triples: make([]ltriple, 0, ch.Lines+1)}
	data := ch.Data
	line := ch.StartLine
	for len(data) > 0 {
		var raw []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			raw, data = data, nil
		}
		s, p, o, ok, err := rdf.ParseDataLine(raw)
		if err != nil {
			dec.err = lineError(line, err)
			break
		}
		if ok {
			dec.triples = append(dec.triples, ltriple{ld.intern(s), ld.intern(p), ld.intern(o)})
		}
		line++
	}
	dec.strs = ld.strs // snapshot: entries below len are immutable
	return dec
}
