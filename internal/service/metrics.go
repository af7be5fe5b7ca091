package service

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"
)

// This file implements GET /metrics: the service's counters rendered in
// the Prometheus text exposition format (version 0.0.4), with no client
// library — the format is plain text and this service's metric set is
// small and fixed. Every counter already surfaced by /stats is mapped:
// store/snapshot gauges, update and compaction counters, plan-cache
// counters, the token pool, parallelism telemetry, kernel and algebra
// counters, tracing counters, and the per-endpoint request counts and
// latency histograms (cumulative `le` buckets with +Inf, _sum in seconds,
// _count). Two Go runtime counters, GC cycles and heap bytes allocated,
// come straight from runtime/metrics.

// handleMetrics renders the exposition from one Stats snapshot.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b strings.Builder
	m := metricWriter{b: &b}

	m.gauge("repro_store_triples", "Triples in the current snapshot.", float64(st.Store.Triples))
	m.gauge("repro_store_base_triples", "Triples in the snapshot's fully indexed base.", float64(st.Store.BaseTriples))
	m.gauge("repro_store_pending_inserts", "Pending delta inserts merged in on read.", float64(st.Store.PendingInserts))
	m.gauge("repro_store_pending_deletes", "Pending delta deletes merged in on read.", float64(st.Store.PendingDeletes))
	m.counter("repro_store_generation", "Current snapshot generation (increments on every swap).", float64(st.Store.Generation))
	mapped := 0.0
	if st.Store.Backend == "mapped" {
		mapped = 1
	}
	m.gauge("repro_store_mapped", "1 when the current snapshot serves from an mmap-backed v4 file, 0 for heap.", mapped)
	m.gauge("repro_store_mapped_bytes", "Bytes of the snapshot file mappings backing the current store (0 for heap).", float64(st.Store.MappedBytes))
	m.gauge("repro_store_mappings_awaiting_unmap", "Retired mmap-backed generations still pinned by in-flight queries.", float64(st.Store.MappingsAwaitingUnmap))
	m.gauge("repro_dict_render_table_bytes", "Bytes of the dictionary's JSON-rendered term table (0 until the first JSON result).", float64(st.Store.RenderTableBytes))
	m.gauge("repro_store_shards", "Shard count in coordinator mode (0 for a single store).", float64(st.Store.Shards))
	if len(st.Store.PerShard) > 0 {
		m.header("repro_shard_triples", "Triples per shard.", "gauge")
		for i, ss := range st.Store.PerShard {
			m.shardLabeled("repro_shard_triples", i, float64(ss.Triples))
		}
		m.header("repro_shard_pending_inserts", "Pending delta inserts per shard.", "gauge")
		for i, ss := range st.Store.PerShard {
			m.shardLabeled("repro_shard_pending_inserts", i, float64(ss.PendingInserts))
		}
		m.header("repro_shard_pending_deletes", "Pending delta deletes per shard.", "gauge")
		for i, ss := range st.Store.PerShard {
			m.shardLabeled("repro_shard_pending_deletes", i, float64(ss.PendingDeletes))
		}
		m.header("repro_shard_mapped_bytes", "Bytes of the snapshot file mapping backing each shard (0 for heap).", "gauge")
		for i, ss := range st.Store.PerShard {
			m.shardLabeled("repro_shard_mapped_bytes", i, float64(ss.MappedBytes))
		}
		m.header("repro_shard_compact_threshold", "Delta size at which each shard compacts, against its own base (0 = disabled).", "gauge")
		for i, ss := range st.Store.PerShard {
			m.shardLabeled("repro_shard_compact_threshold", i, float64(ss.CompactThreshold))
		}
	}

	m.counter("repro_updates_total", "Applied update requests.", float64(st.Updates.Updates))
	m.counter("repro_compactions_total", "Snapshots that folded the pending delta into a fresh store.", float64(st.Updates.Compactions))
	m.gauge("repro_compact_threshold", "Delta size at which the next update compacts (0 = disabled).", float64(st.Updates.CompactThreshold))

	m.gauge("repro_plan_cache_size", "Plan cache entries in the current snapshot's cache.", float64(st.Cache.Size))
	m.gauge("repro_plan_cache_capacity", "Plan cache entry capacity.", float64(st.Cache.Capacity))
	m.counter("repro_plan_cache_hits_total", "Plan cache hits.", float64(st.Cache.Hits))
	m.counter("repro_plan_cache_misses_total", "Plan cache misses.", float64(st.Cache.Misses))
	m.counter("repro_plan_cache_evictions_total", "Plan cache evictions.", float64(st.Cache.Evictions))

	m.gauge("repro_pool_workers", "Token pool size (admission + intra-query workers).", float64(st.Pool.Workers))
	m.gauge("repro_pool_queue_depth", "Admission queue capacity.", float64(st.Pool.QueueDepth))
	m.gauge("repro_pool_in_flight", "Requests currently executing.", float64(st.Pool.InFlight))
	m.gauge("repro_pool_queued", "Requests currently waiting for a token.", float64(st.Pool.Queued))
	m.gauge("repro_pool_tokens_in_use", "Pool tokens currently held.", float64(st.Pool.TokensInUse))
	m.counter("repro_pool_rejected_total", "Requests rejected with 429 by admission control.", float64(st.Pool.Rejected))
	m.counter("repro_pool_token_waits_total", "Admissions that had to wait for a token.", float64(st.Pool.TokenWaits))
	m.counter("repro_pool_token_wait_seconds_total", "Total time admissions spent waiting for tokens.", st.Pool.TokenWaitMs/1e3)

	m.gauge("repro_parallelism", "Configured per-query worker ceiling.", float64(st.Parallel.Parallelism))
	m.counter("repro_parallel_queries_total", "Queries that ran at least one parallel operator.", float64(st.Parallel.Queries))
	m.counter("repro_parallel_morsels_total", "Morsels executed across all queries.", float64(st.Parallel.Morsels))
	m.gauge("repro_parallel_max_workers", "Largest per-query peak worker count observed.", float64(st.Parallel.MaxWorkers))

	k := st.Engine.Kernels
	m.counter("repro_kernel_batches_total", "Columnar batches processed.", float64(k.Batches))
	m.counter("repro_kernel_filter_rows_total", "Rows through columnar filter kernels.", float64(k.FilterRows))
	m.counter("repro_kernel_hash_probe_rows_total", "Rows through columnar hash-probe kernels.", float64(k.HashProbeRows))
	m.counter("repro_kernel_gather_rows_total", "Rows gathered into dense batches.", float64(k.GatherRows))
	m.counter("repro_algebra_left_join_rows_total", "Rows emitted by left outer joins (OPTIONAL).", float64(k.LeftJoinRows))
	m.counter("repro_algebra_union_rows_total", "Rows emitted by unions.", float64(k.UnionRows))
	m.counter("repro_algebra_agg_groups_total", "Groups emitted by aggregations.", float64(k.AggGroups))

	cycles, allocBytes := gcCounters()
	m.counter("repro_go_gc_cycles_total", "Completed garbage-collection cycles (runtime/metrics /gc/cycles/total:gc-cycles).", cycles)
	m.counter("repro_go_heap_allocs_bytes_total", "Cumulative bytes allocated on the heap (runtime/metrics /gc/heap/allocs:bytes).", allocBytes)

	m.counter("repro_traces_total", "Queries that ran with a trace collector.", float64(st.Trace.Traced))
	m.counter("repro_slow_queries_total", "Queries at or above the slow-query threshold.", float64(st.Trace.Slow))
	m.counter("repro_traces_retained_total", "Traces retained in the recent-trace ring (lifetime).", float64(st.Trace.Retained))

	// Per-endpoint request counters and latency histograms, in sorted key
	// order so the exposition is deterministic.
	keys := make([]string, 0, len(st.Requests))
	for key := range st.Requests {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	m.header("repro_requests_total", "Finished requests per endpoint (failures included).", "counter")
	for _, key := range keys {
		m.labeled("repro_requests_total", key, float64(st.Requests[key].Count))
	}
	m.header("repro_request_errors_total", "Failed requests per endpoint.", "counter")
	for _, key := range keys {
		m.labeled("repro_request_errors_total", key, float64(st.Requests[key].Errors))
	}
	m.header("repro_request_latency_seconds", "Request latency per endpoint.", "histogram")
	for _, key := range keys {
		m.histogram("repro_request_latency_seconds", key, st.Requests[key].LatencyMs)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// gcCounters reads the process's completed GC cycles and cumulative heap
// allocation from runtime/metrics: two scrapes of /metrics give the
// allocation rate and GC frequency of a running server without pprof.
func gcCounters() (cycles, allocBytes float64) {
	samples := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	return float64(samples[0].Value.Uint64()), float64(samples[1].Value.Uint64())
}

// metricWriter emits exposition lines.
type metricWriter struct {
	b *strings.Builder
}

func (m metricWriter) header(name, help, typ string) {
	fmt.Fprintf(m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m metricWriter) counter(name, help string, v float64) {
	m.header(name, help, "counter")
	fmt.Fprintf(m.b, "%s %s\n", name, formatValue(v))
}

func (m metricWriter) gauge(name, help string, v float64) {
	m.header(name, help, "gauge")
	fmt.Fprintf(m.b, "%s %s\n", name, formatValue(v))
}

func (m metricWriter) labeled(name, endpoint string, v float64) {
	fmt.Fprintf(m.b, "%s{endpoint=\"%s\"} %s\n", name, escapeLabel(endpoint), formatValue(v))
}

func (m metricWriter) shardLabeled(name string, shard int, v float64) {
	fmt.Fprintf(m.b, "%s{shard=\"%d\"} %s\n", name, shard, formatValue(v))
}

// histogram renders a stats latency histogram (milliseconds) as Prometheus
// cumulative buckets in seconds. The serialized histogram's bucket i
// covers [BoundsMs[i-1], BoundsMs[i]) with open-ended first and last
// buckets, so bucket i's cumulative count maps to le=BoundsMs[i] and the
// final open bucket to le=+Inf.
func (m metricWriter) histogram(name, endpoint string, h HistogramStats) {
	label := escapeLabel(endpoint)
	cum := 0
	for i, bound := range h.BoundsMs {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		fmt.Fprintf(m.b, "%s_bucket{endpoint=\"%s\",le=\"%s\"} %d\n", name, label, formatValue(bound/1e3), cum)
	}
	fmt.Fprintf(m.b, "%s_bucket{endpoint=\"%s\",le=\"+Inf\"} %d\n", name, label, h.Total)
	fmt.Fprintf(m.b, "%s_sum{endpoint=\"%s\"} %s\n", name, label, formatValue(h.SumMs/1e3))
	fmt.Fprintf(m.b, "%s_count{endpoint=\"%s\"} %d\n", name, label, h.Total)
}

// formatValue renders a sample value with full float64 round-trip
// precision and no exponent surprises for integral values.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeLabel escapes a label value per the exposition format (backslash,
// double quote, newline).
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
