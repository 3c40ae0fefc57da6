package serd

import (
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/stats"
	"repro/serclient"
)

// latWindowSize bounds the sliding latency window per job kind; p50 and
// p99 are computed over the most recent latWindowSize samples.
const latWindowSize = 512

// latWindow is a fixed-capacity ring of latency samples (ms).
type latWindow struct {
	count int64
	max   float64
	ring  [latWindowSize]float64
	n     int // filled entries
	pos   int // next write index
}

func (lw *latWindow) add(ms float64) {
	lw.count++
	if ms > lw.max {
		lw.max = ms
	}
	lw.ring[lw.pos] = ms
	lw.pos = (lw.pos + 1) % latWindowSize
	if lw.n < latWindowSize {
		lw.n++
	}
}

// summary reduces the window to its wire form. Max is the maximum over
// the current window — consistent with P50/P99, which are also
// windowed — while MaxLifetime keeps the process-lifetime maximum the
// field used to (misleadingly) report under the windowed quantiles.
func (lw *latWindow) summary() serclient.LatencySummary {
	xs := make([]float64, lw.n)
	copy(xs, lw.ring[:lw.n])
	var winMax float64
	for _, v := range xs {
		if v > winMax {
			winMax = v
		}
	}
	return serclient.LatencySummary{
		Count:       lw.count,
		P50:         stats.Quantile(xs, 0.50),
		P99:         stats.Quantile(xs, 0.99),
		Max:         winMax,
		MaxLifetime: lw.max,
		Window:      latWindowSize,
	}
}

// metrics aggregates the service counters behind GET /metrics.
type metrics struct {
	start time.Time

	errors        atomic.Int64
	canceled      atomic.Int64
	cacheHits     atomic.Int64
	retries       atomic.Int64
	recovered     atomic.Int64
	shed          atomic.Int64
	journalErrors atomic.Int64
	approxJobs    atomic.Int64

	mu       sync.Mutex
	requests map[string]int64
	lat      map[string]*latWindow
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		requests: make(map[string]int64),
		lat:      make(map[string]*latWindow),
	}
}

// countModes tallies a job's simulation-path selection once it has
// passed validation: the sampled Approx mode.
func (m *metrics) countModes(approx bool) {
	if approx {
		m.approxJobs.Add(1)
	}
}

func (m *metrics) countRequest(endpoint string) {
	m.mu.Lock()
	m.requests[endpoint]++
	m.mu.Unlock()
}

func (m *metrics) recordLatency(kind string, ms float64) {
	m.mu.Lock()
	lw := m.lat[kind]
	if lw == nil {
		lw = &latWindow{}
		m.lat[kind] = lw
	}
	lw.add(ms)
	m.mu.Unlock()
}

// snapshot assembles the wire response; queue/library/compiled-cache
// observables are supplied by the caller.
func (m *metrics) snapshot(queueDepth, jobsRunning, workers int, characterizations int64, cache ser.CompiledCacheStats, artifactsEnabled bool, artifacts ser.ArtifactCacheStats) serclient.MetricsResponse {
	resp := serclient.MetricsResponse{
		UptimeS:           time.Since(m.start).Seconds(),
		Errors:            m.errors.Load(),
		JobsCanceled:      m.canceled.Load(),
		JobsRetried:       m.retries.Load(),
		JobsRecovered:     m.recovered.Load(),
		RequestsShed:      m.shed.Load(),
		JournalErrors:     m.journalErrors.Load(),
		ApproxJobs:        m.approxJobs.Load(),
		LibCacheHits:      m.cacheHits.Load(),
		Characterizations: characterizations,
		CompiledCache: serclient.CompiledCacheMetrics{
			Hits:      cache.Hits,
			Misses:    cache.Misses,
			Evictions: cache.Evictions,
			Entries:   cache.Entries,
			Gates:     cache.Weight,
			Budget:    cache.Budget,
			HitRate:   cache.HitRate(),
		},
		ArtifactCache: serclient.ArtifactCacheMetrics{
			Enabled:     artifactsEnabled,
			Hits:        artifacts.Hits,
			Misses:      artifacts.Misses,
			Saves:       artifacts.Saves,
			Errors:      artifacts.Errors,
			BytesMapped: artifacts.BytesMapped,
		},
		QueueDepth:   queueDepth,
		JobsRunning:  jobsRunning,
		QueueWorkers: workers,
		Requests:     make(map[string]int64),
		LatencyMS:    make(map[string]serclient.LatencySummary),
	}
	m.mu.Lock()
	for k, v := range m.requests {
		resp.Requests[k] = v
	}
	for k, lw := range m.lat {
		resp.LatencyMS[k] = lw.summary()
	}
	m.mu.Unlock()
	return resp
}
