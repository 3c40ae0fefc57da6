package promtext

import (
	"runtime"
	"sort"

	"repro/internal/trace"
	"repro/serclient"
)

// shardLabels prepends a shard label when the instance has a name, so
// the same renderer serves a standalone process (no label), a named
// shard, and the router's per-shard re-exposition.
func shardLabels(shard string, extra ...Label) []Label {
	var ls []Label
	if shard != "" {
		ls = append(ls, Label{Name: "shard", Value: shard})
	}
	return append(ls, extra...)
}

// WriteShardMetrics renders one serd process's counters — the same
// snapshot GET /metrics serves as JSON — in exposition format. The
// router calls it once per scraped shard, so HELP/TYPE headers
// dedupe across calls on the shared Writer.
func WriteShardMetrics(w *Writer, m *serclient.MetricsResponse) {
	base := shardLabels(m.Shard)
	w.Gauge("serd_uptime_seconds", "Seconds since process start.", base, m.UptimeS)
	for _, ep := range sortedKeys(m.Requests) {
		w.Counter("serd_requests_total", "HTTP requests per endpoint.",
			shardLabels(m.Shard, Label{Name: "endpoint", Value: ep}), float64(m.Requests[ep]))
	}
	w.Counter("serd_errors_total", "Requests answered with a 4xx/5xx status.", base, float64(m.Errors))
	w.Gauge("serd_queue_depth", "Jobs waiting in the bounded queue.", base, float64(m.QueueDepth))
	w.Gauge("serd_jobs_running", "Jobs executing right now.", base, float64(m.JobsRunning))
	w.Gauge("serd_queue_workers", "Worker-pool size.", base, float64(m.QueueWorkers))
	w.Counter("serd_jobs_canceled_total", "Jobs canceled before completion.", base, float64(m.JobsCanceled))
	w.Counter("serd_jobs_retried_total", "Failed attempts re-enqueued for retry.", base, float64(m.JobsRetried))
	w.Counter("serd_jobs_recovered_total", "Jobs re-enqueued from the journal at startup.", base, float64(m.JobsRecovered))
	w.Counter("serd_requests_shed_total", "Submissions bounced with 429 (queue full).", base, float64(m.RequestsShed))
	w.Counter("serd_journal_errors_total", "Journal appends that failed after job acceptance.", base, float64(m.JournalErrors))
	w.Counter("serd_approx_jobs_total", "Accepted jobs that opted into the sampled Approx mode.", base, float64(m.ApproxJobs))
	w.Counter("serd_characterizations_total", "Cell-class characterizations executed (library cache misses).", base, float64(m.Characterizations))
	w.Counter("serd_lib_cache_hits_total", "Jobs served entirely from characterized tables.", base, float64(m.LibCacheHits))
	cc := m.CompiledCache
	w.Counter("serd_compiled_cache_hits_total", "Compiled-circuit cache hits.", base, float64(cc.Hits))
	w.Counter("serd_compiled_cache_misses_total", "Compiled-circuit cache misses.", base, float64(cc.Misses))
	w.Counter("serd_compiled_cache_evictions_total", "Compiled-circuit cache evictions.", base, float64(cc.Evictions))
	w.Gauge("serd_compiled_cache_hit_ratio", "Hits over lookups, 0 before any lookup.", base, cc.HitRate)
	w.Gauge("serd_compiled_cache_entries", "Compiled circuits currently cached.", base, float64(cc.Entries))
	w.Gauge("serd_compiled_cache_gates", "Gate records charged against the cache budget.", base, float64(cc.Gates))
	w.Gauge("serd_compiled_cache_gate_budget", "Gate-record capacity evictions enforce.", base, float64(cc.Budget))
	if ac := m.ArtifactCache; ac.Enabled {
		w.Counter("serd_artifact_hits_total", "Compiled circuits served from the on-disk artifact store.", base, float64(ac.Hits))
		w.Counter("serd_artifact_misses_total", "Artifact lookups that fell through to a fresh compile.", base, float64(ac.Misses))
		w.Counter("serd_artifact_saves_total", "Compiled artifacts written to disk.", base, float64(ac.Saves))
		w.Counter("serd_artifact_errors_total", "Corrupt or unwritable artifacts (each costs one recompile).", base, float64(ac.Errors))
		w.Counter("serd_artifact_bytes_mapped_total", "Bytes of artifact data mapped on hits.", base, float64(ac.BytesMapped))
	}
	for _, kind := range sortedLatKeys(m.LatencyMS) {
		ls := m.LatencyMS[kind]
		kl := shardLabels(m.Shard, Label{Name: "kind", Value: kind})
		w.Summary("serd_job_latency_ms",
			"Job latency quantiles in milliseconds over the recent-jobs window (process-local; never aggregate quantiles across shards).",
			kl, map[float64]float64{0.5: ls.P50, 0.99: ls.P99}, ls.Count)
		w.Gauge("serd_job_latency_window_max_ms", "Max job latency over the recent-jobs window.", kl, ls.Max)
		w.Gauge("serd_job_latency_lifetime_max_ms", "Max job latency since process start.", kl, ls.MaxLifetime)
	}
}

// WriteStageHistograms renders the process-global per-stage latency
// histograms collected by internal/trace.
func WriteStageHistograms(w *Writer, shard string, hists []trace.StageHist) {
	bounds := trace.HistBuckets()
	for _, h := range hists {
		w.Histogram("serd_stage_duration_seconds",
			"Pipeline stage latency (compile, sensitization, electrical, logical, reduce, ...).",
			shardLabels(shard, Label{Name: "stage", Value: h.Stage}), bounds, h.Buckets, h.SumSeconds)
	}
}

// WriteTraceCounters renders the global event counters collected by
// internal/trace (engine memo hits/misses and friends).
func WriteTraceCounters(w *Writer, shard string, ctrs []trace.CounterEvent) {
	for _, c := range ctrs {
		w.Counter("serd_trace_events_total", "Instrumentation event counts (engine compile/memo and friends).",
			shardLabels(shard, Label{Name: "event", Value: c.Name}), float64(c.Value))
	}
}

// WriteRuntime renders Go runtime health: goroutines, heap, GC.
func WriteRuntime(w *Writer, shard string) {
	base := shardLabels(shard)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Gauge("go_goroutines", "Live goroutines.", base, float64(runtime.NumGoroutine()))
	w.Gauge("go_memstats_heap_alloc_bytes", "Heap bytes currently allocated.", base, float64(ms.HeapAlloc))
	w.Gauge("go_memstats_heap_objects", "Live heap objects.", base, float64(ms.HeapObjects))
	w.Counter("go_memstats_alloc_bytes_total", "Cumulative bytes allocated on the heap.", base, float64(ms.TotalAlloc))
	w.Counter("go_gc_cycles_total", "Completed GC cycles.", base, float64(ms.NumGC))
	w.Counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", base, float64(ms.PauseTotalNs)/1e9)
}

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedLatKeys(m map[string]serclient.LatencySummary) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
