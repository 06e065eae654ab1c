// Command perfbench is SMOQE's end-to-end and per-layer benchmark. It
// starts an in-process server (server.New with the default Config) behind
// its Handler on a loopback listener and drives it from the same process
// with one closed-loop net/http client on one keep-alive connection.
//
// Run it from the repository root; perfbench/run.sh builds it from the
// checkout's sources first:
//
//	bash perfbench/run.sh --workload doc_hot --seed 1 --seconds 35 --trace 0
//
// Every input and request sequence derives from --seed. Set-up generates
// the documents (datagen, the hospital fixtures) and queries (qgen) and
// computes every request's expected answer with the reference evaluator
// (refeval, and view.Materialize for queries posed on σ0) on a separately
// parsed copy of the source; the server receives only XML, snapshot bytes
// and query text. Each workload replays a fixed cycle of requests: a
// warm-up pass, then whole cycles for at least --seconds. Every response
// is checked; a wrong one fails the run (exit status 1).
//
// Workloads:
//
//	doc_hot        one 2,000-patient document; nine queries × three engines,
//	               all plan-cache hits after warm-up: evaluation, answer
//	               materialization and encoding.
//	plan_cold      the 175-node sample document; half the requests are fresh
//	               qgen queries, the rest 64 hot pairs, and σ0 is re-registered
//	               every 500 requests: front end, plan cache and the
//	               parse → rewrite/compile → prepare pipeline. It runs with
//	               GOMAXPROCS=1 (see planCold).
//	corpus_fanout  a collection of 48 documents queried through the fan-out
//	               path: per-document fixed cost and the prefilter.
//
// With --trace 0 the result line carries the end-to-end metrics of an
// untraced run: throughput, p50 and p99 latency, CPU per request, the
// share of right answers, set-up time (median of several set-ups, half
// before the timed window and half after it) and the live heap the server
// adds. Throughput and CPU per request are medians
// over one-second slices of the window, and the p99 is the median over
// slices of at least 1,000 requests, so that a burst of interference from
// outside the process moves one slice rather than the figure.
//
// With --trace 1 the same run is followed by a traced pass over a fresh
// set-up, and the result line carries the per-layer metrics. In the
// traced pass each request is sent as before (span "request") and then
// replayed in-process one layer at a time: Handler().ServeHTTP into a
// recorder ("server.handler"), JSON decode ("server.decode"),
// Server.Query ("server.query"), JSON encode ("server.encode"), and for
// plan-cache misses the plan pipeline ("xpath.parse", "rewrite.rewrite"
// or "mfa.compile", "smoqe.prepare").
// Set-up calls get spans too. Spans are timed from outside the program,
// around its public entry points, and written as JSON lines to
// .bench_build/spans/<workload>-seed<seed>.jsonl.
//
// The benchmark calls only the HTTP API, the server's New, Handler, Query,
// OpenCorpus and Cache().Stats(), the smoqe facade's parse, rewrite,
// compile, prepare and columnar/snapshot entry points, and the generator
// and oracle packages; TestEntryPointGuard keeps it that way.
package main
