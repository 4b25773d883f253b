// Command wdserve is the hardened streaming SPARQL-over-HTTP endpoint:
// it loads an RDF graph, builds a prepared-query engine over it, and
// serves the SPARQL protocol on /sparql with chunked SPARQL-JSON or
// TSV results streamed straight off the enumeration. Structural
// robustness comes from internal/server: admission control with load
// shedding (503 + Retry-After), per-request deadlines/limits enforced
// through the request context, write-deadline handling for stalled
// clients, per-request panic isolation, and graceful drain on
// SIGINT/SIGTERM (a second signal force-exits).
//
// Usage:
//
//	wdserve -data graph.nt [-addr :8080] [flags]
//	wdserve -snapshot graph.wdsnap [-snapshot-mode mmap|heap] [flags]
//
// With -snapshot the graph comes off a checksummed snapshot image
// (built by wdsnap) instead of being parsed: mmap mode starts serving
// in milliseconds regardless of graph size, and POST /reload re-reads
// the snapshot path and swaps the engine in without dropping a single
// in-flight request.
//
// Live writes: POST /ingest accepts an N-Triples stream (optionally
// gzipped) and applies it in atomic batches to a mutable overlay on
// the sealed graph — queries keep streaming, no restart, no reload.
// When the overlay passes -refreeze-at triples it is sealed into a
// delta tier behind the live readers; the base (with -snapshot, the
// mapped image) is rebuilt only once the delta would reach its size. Startup loads with the
// parallel ingest pipeline (-load-workers) and reports progress.
//
// Operational endpoints: /healthz (liveness), /readyz (flips to 503
// while draining), /stats (serving counters as JSON), /reload (POST;
// snapshot serving only), /ingest (POST; live writes).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"wdsparql"
	"wdsparql/internal/ingest"
	"wdsparql/internal/interrupt"
	"wdsparql/internal/rdf"
	"wdsparql/internal/server"
)

func main() {
	var (
		dataPath = flag.String("data", "", "RDF graph file (N-Triples subset, optionally gzipped); '-' for stdin")
		snapPath = flag.String("snapshot", "", "snapshot image to serve from (see wdsnap); enables POST /reload")
		snapMode = flag.String("snapshot-mode", "mmap", "snapshot loader: mmap | heap")
		addr     = flag.String("addr", ":8080", "listen address")

		workers = flag.Int("workers", 1, "default enumeration worker-pool size")
		qcache  = flag.Int("query-cache", 128, "prepared-query LRU capacity (0 disables)")

		gate         = flag.Int("gate", 8, "queries executing concurrently")
		queue        = flag.Int("queue", 0, "bounded wait queue beyond the gate (0: same as -gate)")
		queueTimeout = flag.Duration("queue-timeout", time.Second, "max wait in the queue before shedding")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request deadline when none is given")
		maxTimeout   = flag.Duration("max-timeout", 5*time.Minute, "cap on the ?timeout= parameter")
		maxLimit     = flag.Int("max-limit", 0, "cap on rows per request (0: unlimited)")
		writeTimeout = flag.Duration("write-timeout", 15*time.Second, "write deadline armed before every write to the connection")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown grace before hard-cancel")

		loadWorkers    = flag.Int("load-workers", 0, "parallel-ingest workers for the -data load (0: GOMAXPROCS)")
		ingestBatch    = flag.Int("ingest-batch", 5000, "triples per atomically applied POST /ingest batch")
		refreezeAt     = flag.Int("refreeze-at", 50000, "overlay size that triggers a re-freeze: the overlay is sealed into the delta tier, folded into a fresh base once that reaches the base's size (< 0 disables)")
		ingestMaxBytes = flag.Int64("ingest-max-bytes", 1<<30, "bound on a POST /ingest body in bytes")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "wdserve: ", log.LstdFlags)
	if (*dataPath == "") == (*snapPath == "") {
		fmt.Fprintln(os.Stderr, "wdserve: exactly one of -data or -snapshot is required")
		flag.Usage()
		os.Exit(2)
	}

	opts := []wdsparql.Option{wdsparql.WithWorkers(*workers), wdsparql.WithQueryCache(*qcache)}

	cfg := server.Config{
		MaxConcurrent:  *gate,
		MaxQueue:       *queue,
		QueueTimeout:   *queueTimeout,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxLimit:       *maxLimit,
		MaxWorkers:     max(*workers, 1),
		WriteTimeout:   *writeTimeout,
		IngestBatch:    *ingestBatch,
		RefreezeAt:     *refreezeAt,
		MaxIngestBytes: *ingestMaxBytes,
	}

	var g *rdf.Graph
	if *snapPath != "" {
		mode, err := wdsparql.ParseSnapshotMode(*snapMode)
		if err != nil {
			logger.Fatal(err)
		}
		load := func() (*wdsparql.Engine, *server.SnapshotStats, io.Closer, error) {
			eng, snap, err := wdsparql.NewEngineFromSnapshot(*snapPath, mode, opts...)
			if err != nil {
				return nil, nil, nil, err
			}
			return eng, server.SnapshotStatsOf(snap.Info()), snap, nil
		}
		eng, stats, closer, err := load()
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("snapshot %s: %s, crc %s, loaded in %.1fms (%s)",
			*snapPath, stats.Mode, stats.Checksum, stats.LoadMs,
			func() string {
				if mode == wdsparql.SnapshotMmap {
					return "pages fault in on demand"
				}
				return "fully resident"
			}())
		cfg.Engine, cfg.Snapshot, cfg.Closer, cfg.Reload = eng, stats, closer, load
		g = eng.Graph()
	} else {
		var err error
		start := time.Now()
		g, err = readGraph(*dataPath, *loadWorkers, logger)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("loaded %d triples in %.1fs", g.Len(), time.Since(start).Seconds())
		cfg.Engine = wdsparql.NewEngine(g, opts...)
		g = cfg.Engine.Graph()
	}

	srv := server.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("serving %d triples on http://%s/sparql (gate %d)", g.Len(), ln.Addr(), *gate)

	// First SIGINT/SIGTERM starts the drain; a second force-exits.
	ctx, stop := interrupt.Context(context.Background())
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Fatal(err) // listener failed before any shutdown request
	case <-ctx.Done():
	}

	logger.Printf("draining (up to %s; interrupt again to force exit)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Printf("drain deadline exceeded: in-flight streams hard-cancelled (%v)", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	logger.Print("shut down cleanly")
}

// readGraph loads the -data file through the parallel ingest pipeline,
// frozen for the serving backend, logging progress at most every
// two seconds so a multi-gigabyte load is visibly alive.
func readGraph(path string, workers int, logger *log.Logger) (*rdf.Graph, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	lastLog := time.Now()
	return ingest.Load(r, ingest.Options{
		Workers: workers,
		Progress: func(bytes int64, triples int) {
			if time.Since(lastLog) >= 2*time.Second {
				lastLog = time.Now()
				logger.Printf("loading: %d triples (%.1f MiB read)", triples, float64(bytes)/(1<<20))
			}
		},
	})
}
