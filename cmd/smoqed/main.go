// Command smoqed is the SMOQE query daemon: an HTTP/JSON service that
// answers regular XPath queries over registered documents and views
// without materializing the views. Plans (parse → rewrite → compile) are
// cached in an LRU keyed by (view, query); evaluation runs concurrently on
// pooled HyPE engine clones.
//
// Usage:
//
//	smoqed [-addr :8640] [-cache 256] [-timeout 30s]
//	       [-doc name=file.xml ...] [-snapshot-dir DIR]
//	       [-corpus-dir DIR] [-corpus-scan 2s]
//	       [-corpus-max-queries 4]
//	       [-view name=spec.view,source.dtd,target.dtd ...]
//	       [-sample] [-pprof]
//	       [-parallelism 0] [-max-concurrent 4×GOMAXPROCS] [-queue-wait 100ms]
//	       [-max-visited 0] [-max-results 0]
//	       [-max-doc-depth 0] [-max-doc-nodes 0] [-max-doc-bytes 0] [-max-body 64MiB]
//	       [-breaker-threshold 5] [-breaker-cooldown 5s]
//	       [-read-timeout 30s] [-write-timeout timeout+30s] [-idle-timeout 2m]
//	       [-trace-store 256] [-trace-sample-every 1s] [-trace-latency 250ms]
//
// Fault injection for chaos testing (see docs/ROBUSTNESS.md):
//
//	SMOQE_FAILPOINTS=server.planbuild=error@0.1,hype.shard.worker=panic smoqed ...
//
// The API (see docs/SERVER.md and docs/OBSERVABILITY.md):
//
//	POST /query  {"doc":"d","view":"v","query":"...","engine":"hype","explain":true}
//	GET|POST /docs, /views
//	GET  /collections, /collections/{name}
//	POST /collections/{name}/query, /collections/{name}/reindex
//	GET  /stats, /metrics, /slow, /traces, /traces/{id}, /healthz
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"smoqe"
	"smoqe/internal/failpoint"
	"smoqe/internal/hospital"
	"smoqe/internal/server"
)

func main() {
	addr := flag.String("addr", ":8640", "listen address")
	cacheSize := flag.Int("cache", 256, "plan cache capacity (plans)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request evaluation timeout")
	maxPaths := flag.Int("maxpaths", 1000, "maximum node paths returned per response (negative = unlimited)")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown window")
	sample := flag.Bool("sample", false, "preload the paper's hospital sample document and σ0 view")
	traceLimit := flag.Int("trace-limit", 0, "per-node trace cap for explain requests (0 = engine default)")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	parallelism := flag.Int("parallelism", 0, "shard-parallel worker cap per evaluation (0 disables, -1 = GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 4*runtime.GOMAXPROCS(0), "admission control: evaluations running at once (0 = unbounded)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "how long a request may wait for an evaluation slot before a 429")
	maxVisited := flag.Int("max-visited", 0, "per-evaluation budget: element nodes visited (0 = unlimited, exceeded = 422)")
	maxResults := flag.Int("max-results", 0, "per-evaluation budget: result candidates accumulated (0 = unlimited, exceeded = 422)")
	maxDocDepth := flag.Int("max-doc-depth", 0, "registered-document limit: element nesting depth (0 = unlimited, exceeded = 413)")
	maxDocNodes := flag.Int("max-doc-nodes", 0, "registered-document limit: total nodes (0 = unlimited, exceeded = 413)")
	maxDocBytes := flag.Int64("max-doc-bytes", 0, "registered-document limit: raw XML bytes (0 = unlimited, exceeded = 413)")
	maxBody := flag.Int64("max-body", 0, "HTTP request body cap in bytes (0 = 64 MiB default, negative = unlimited)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive server faults that open a view's circuit breaker (0 = default 5, negative disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default 5s)")
	readTimeout := flag.Duration("read-timeout", 0, "HTTP read timeout (0 = default 30s, negative disables)")
	writeTimeout := flag.Duration("write-timeout", 0, "HTTP write timeout (0 = default timeout+30s, negative disables)")
	idleTimeout := flag.Duration("idle-timeout", 0, "HTTP idle connection timeout (0 = default 2m, negative disables)")
	traceStore := flag.Int("trace-store", 0, "request-trace store capacity in traces (0 = default 256, negative disables tracing)")
	traceSampleEvery := flag.Duration("trace-sample-every", 0, "retain one unremarkable trace per this interval (0 = default 1s, negative never samples)")
	traceLatency := flag.Duration("trace-latency", 0, "slow threshold: retain every trace at least this slow and list slow /query evaluations at /slow (0 = 250ms, negative disables)")

	snapshotDir := flag.String("snapshot-dir", "", "load every *"+smoqe.SnapshotFileExt+" file in this directory as a document at startup")
	corpusDir := flag.String("corpus-dir", "", "serve collections from this directory (one collection per subdirectory of XML/snapshot files)")
	corpusScan := flag.Duration("corpus-scan", 0, "corpus background rescan interval, which also paces retries of failing documents (0 = default 2s)")
	corpusMaxQueries := flag.Int("corpus-max-queries", 0, "concurrent fan-out queries per collection (0 = default 4, negative unbounded)")

	var docFlags, viewFlags multiFlag
	flag.Var(&docFlags, "doc", "register a document at startup: name=file.xml (repeatable)")
	flag.Var(&viewFlags, "view", "register a view at startup: name=spec.view,source.dtd,target.dtd (repeatable)")
	flag.Parse()

	srv := server.New(server.Config{
		CacheSize:             *cacheSize,
		RequestTimeout:        *timeout,
		MaxPaths:              *maxPaths,
		TraceLimit:            *traceLimit,
		EnablePprof:           *enablePprof,
		MaxParallelism:        *parallelism,
		MaxConcurrentEvals:    *maxConcurrent,
		QueueWait:             *queueWait,
		EvalLimits:            smoqe.EvalLimits{MaxVisited: *maxVisited, MaxResultNodes: *maxResults},
		ParseLimits:           smoqe.ParseLimits{MaxDepth: *maxDocDepth, MaxNodes: *maxDocNodes, MaxBytes: *maxDocBytes},
		MaxBodyBytes:          *maxBody,
		BreakerThreshold:      *breakerThreshold,
		BreakerCooldown:       *breakerCooldown,
		ReadTimeout:           *readTimeout,
		WriteTimeout:          *writeTimeout,
		IdleTimeout:           *idleTimeout,
		TraceStoreSize:        *traceStore,
		TraceSampleEvery:      *traceSampleEvery,
		TraceLatencyRetention: *traceLatency,

		CorpusScanInterval:         *corpusScan,
		CorpusMaxConcurrentQueries: *corpusMaxQueries,
		CorpusLogf:                 log.Printf,
	})

	if sites, err := failpoint.ArmFromEnv(); err != nil {
		log.Fatalf("smoqed: %s: %v", failpoint.EnvVar, err)
	} else if len(sites) > 0 {
		log.Printf("WARNING: failpoints armed (%s): %s", failpoint.EnvVar, strings.Join(failpoint.Armed(), " "))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sample {
		if _, err := srv.Registry().RegisterDocument("hospital", hospital.SampleDocument()); err != nil {
			log.Fatalf("smoqed: -sample: %v", err)
		}
		if _, err := srv.RegisterView("sigma0", hospital.Sigma0()); err != nil {
			log.Fatalf("smoqed: -sample: %v", err)
		}
		log.Printf("preloaded sample document %q and view %q", "hospital", "sigma0")
	}
	for _, spec := range docFlags {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("smoqed: -doc %q: want name=file.xml", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("smoqed: -doc %s: %v", name, err)
		}
		entry, err := srv.LoadDocument(ctx, name, f, false)
		f.Close()
		if err != nil {
			log.Fatalf("smoqed: -doc %s: %v", name, err)
		}
		log.Printf("registered document %q (%d elements)", name, entry.Stats.Elements)
	}
	if *snapshotDir != "" {
		n, skipped, err := srv.LoadSnapshotDir(*snapshotDir)
		if err != nil {
			log.Fatalf("smoqed: -snapshot-dir %s: %v", *snapshotDir, err)
		}
		// A corrupt snapshot is an operational event, not a startup failure:
		// the healthy ones serve, the broken ones are named in the log.
		for _, serr := range skipped {
			log.Printf("WARNING: -snapshot-dir %s: skipped: %v", *snapshotDir, serr)
		}
		log.Printf("loaded %d snapshot(s) from %s (%d skipped)", n, *snapshotDir, len(skipped))
	}
	for _, spec := range viewFlags {
		name, rest, ok := strings.Cut(spec, "=")
		parts := strings.Split(rest, ",")
		if !ok || len(parts) != 3 {
			log.Fatalf("smoqed: -view %q: want name=spec.view,source.dtd,target.dtd", spec)
		}
		files := make([]string, 3)
		for i, p := range parts {
			raw, err := os.ReadFile(strings.TrimSpace(p))
			if err != nil {
				log.Fatalf("smoqed: -view %s: %v", name, err)
			}
			files[i] = string(raw)
		}
		entry, err := srv.RegisterViewSpec(name, files[0], files[1], files[2])
		if err != nil {
			log.Fatalf("smoqed: -view %s: %v", name, err)
		}
		log.Printf("registered view %q (recursive=%v, |σ|=%d)", name, entry.View.IsRecursive(), entry.View.Size())
	}

	if *corpusDir != "" {
		if err := srv.OpenCorpus(ctx, *corpusDir); err != nil {
			log.Fatalf("smoqed: -corpus-dir %s: %v", *corpusDir, err)
		}
		srv.StartCorpus(ctx)
		defer srv.CloseCorpus()
		for _, info := range srv.Corpus().Infos() {
			log.Printf("corpus collection %q: generation %d, %d indexed, %d quarantined",
				info.Name, info.Generation, info.Indexed, info.Quarantined)
		}
	}

	log.Printf("smoqed listening on %s (cache %d plans, timeout %s)", *addr, *cacheSize, *timeout)
	if err := srv.Serve(ctx, *addr, *grace); err != nil {
		log.Fatalf("smoqed: %v", err)
	}
	st := srv.Stats()
	log.Printf("shut down after %d requests (%d failures), cache %d/%d hits",
		st.Requests, st.Failures, st.Cache.Hits, st.Cache.Hits+st.Cache.Misses)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, " ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
