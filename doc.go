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
// index-nested-loop probes, hash and cross joins, filter placement), and
// exec pulls columnar batches through the operator tree on the query's own
// goroutine, counting Cout/Work/Scanned per tuple. See ARCHITECTURE.md for the layer map and where each counter
// is maintained.
//
// Stores persist as v4 binary snapshots (magic "RDFSNAP4"): page-aligned
// sections holding an offset-table dictionary, all six indexes and the
// statistics. WriteSnapshot writes them (folding a pending delta in),
// ReadSnapshot loads one onto the heap with full revalidation and an
// index rebuild, and store.Open — the one opener of every command —
// serves a v4 file straight from an OS file mapping in O(1), zero-copy.
// Files in the older formats v1–v3 fail to load with a
// *store.VersionError. A shard directory (store.WriteSharded: one v4 file
// per subject-hash shard plus a manifest) is only an on-disk layout:
// store.Open merges its shards' runs once and opens it as one store.
//
// On top of the one-shot pipeline, internal/service hosts a long-lived
// concurrent query service — prepared templates, a shared LRU plan cache,
// bounded-worker admission control and hot snapshot swaps — exposed as a
// JSON HTTP API by cmd/served.
package repro
