// Package repro is a full reproduction of "How to generate query parameters
// in RDF benchmarks?" (Gubichev, Angles, Boncz — ICDE Workshops 2014).
//
// The repository contains, from the ground up: an RDF data model and
// N-Triples codec (internal/rdf), dictionary encoding (internal/dict), a
// hexastore-style triple store with exact pattern cardinalities and
// zero-copy batch range scans (internal/store), a SPARQL-subset parser
// with %parameter templates (internal/sparql), a Cout-based
// dynamic-programming query optimizer and a physical-plan lowering from
// logical join trees to operator trees (internal/plan), a columnar
// batch executor with exact intermediate-result accounting, golden-tested
// against frozen fixtures and a naive reference evaluator (internal/exec,
// internal/experiments, internal/difftest), scaled-down BSBM and LDBC-SNB/S3G2 data generators
// (internal/bsbm, internal/snb), statistics including Kolmogorov–Smirnov
// and Pearson (internal/stats), and the paper's contribution — parameter
// domain extraction, parallel per-binding plan analysis, clustering into
// parameter classes and curated samplers (internal/core).
//
// Query execution flows logical plan → physical plan → operator
// execution: plan.Compile and plan.Optimize produce the Cout-optimal join
// tree, plan.Lower fixes the physical operator choices (index scans,
// index-nested-loop probes, hash/merge/cross joins, filter placement), and
// exec pulls columnar batches through the operator tree, serially or
// morsel-parallel with bit-identical results and Cout/Work/Scanned
// accounting. See ARCHITECTURE.md for the layer map and where each counter
// is maintained.
//
// Stores persist as binary snapshots, auto-detected by their 8-byte magic.
// The version compatibility matrix:
//
//	version  magic     layout                      read                 mmap-serve
//	v1       RDFSNAP1  fixed-width, SPO stream     ReadSnapshot         no
//	v2       RDFSNAP2  uvarint + delta-encoded     ReadSnapshot         no
//	v3       RDFSNAP3  v2 + delta overlay streams  ReadSnapshot         no
//	v4       RDFSNAP4  page-aligned sections,      ReadSnapshot (full   yes:
//	                   offset-table dictionary,    revalidation and     store.OpenMapped,
//	                   all six indexes + stats     index rebuild)       O(1), zero-copy
//
// All versions remain writable through WriteSnapshotVersion and readable
// through ReadSnapshot/LoadAny; store.LoadAnyMapped additionally serves v4
// files straight from an OS file mapping (the cmd/served default, see its
// -heap-load flag). Loading the same data from any version yields an
// identical store.
//
// On top of the one-shot pipeline, internal/service hosts a long-lived
// concurrent query service — prepared templates, a shared LRU plan cache,
// bounded-worker admission control and hot snapshot swaps — exposed as a
// JSON HTTP API by cmd/served.
//
// bench_test.go in this package regenerates every empirical result of the
// paper as a testing.B benchmark (plus serial-vs-parallel comparisons);
// cmd/repro prints them as tables.
package repro
