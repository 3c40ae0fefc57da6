// Package serd implements the long-running HTTP/JSON analysis service
// behind cmd/serd: a batched job queue over one shared characterized
// cell library.
//
// Architecture. Every request becomes a job on a bounded FIFO queue
// (internal/par.Queue) drained by a fixed worker pool, so heavy
// traffic back-pressures with 503s instead of piling up goroutines.
// All jobs share one ser.System: the first request touching an
// uncharacterized gate class triggers exactly one characterization
// (charlib's per-class singleflight) while concurrent requests for the
// same class block on it and requests for other classes proceed.
// Circuits resolve through a bounded content-addressed compiled-circuit
// cache (built-ins by name, inline netlists by the SHA-256 of their
// canonical .bench form, gate-count-weighted LRU, singleflight on
// miss), so repeat analyses of one netlist skip parse, compile and the
// sensitization simulation entirely; inline netlists are analyzed in
// canonical form, making results stable under whitespace/comment/
// line-order permutations of the same netlist.
// Each job carries its own context — synchronous jobs inherit the
// request context, so a disconnected client cancels its job whether it
// is still queued (it then never runs) or already running (it stops at
// the next pipeline stage); asynchronous jobs inherit the server
// lifetime context and are polled via GET /v1/jobs/{id}.
//
// Endpoints:
//
//	POST /v1/analyze        one ASERTA analysis (sync, or async with
//	                        "async": true); "cycles" >= 1 selects the
//	                        multi-cycle sequential flow for ISCAS-89
//	                        netlists with DFFs
//	POST /v1/optimize       one SERTOPT run (sync or async)
//	POST /v1/susceptibility ranked per-gate susceptibility (sync or
//	                        async; same compiled-cache warm path and
//	                        sequential "cycles" switch as analyze)
//	POST /v1/batch          many circuits, one response
//	GET  /v1/jobs/{id}      poll an async job
//	GET  /healthz           liveness (200 while the process serves)
//	GET  /readyz            readiness (503 while replaying the journal,
//	                        while the queue is saturated, or once
//	                        shutdown has begun)
//	GET  /metrics           request counts, queue depth, cache hits, p50/p99 latency
//
// Durability. With Config.Journal set, every accepted asynchronous
// job is written through an append-only, fsync'd journal
// (internal/journal) before the submission is acknowledged, and every
// state transition — started, attempt failed, done, failed, canceled —
// is journaled as it happens. A restarted server replays the journal:
// results of completed jobs are served under their original IDs, and
// jobs that were queued or running when the process died are
// re-enqueued and run to completion. Failed attempts are retried with
// exponential backoff and jitter up to Config.MaxAttempts within a
// per-job deadline (Config.JobTimeout); a panicking job attempt is
// caught, recorded as a failed attempt, and never kills the process.
// When the bounded queue is full, submissions are shed with
// 429 + Retry-After instead of blocking, and duplicate async
// submissions carrying the same Idempotency-Key header return the
// already-accepted job instead of enqueueing twice.
package serd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/journal"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/serclient"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// System is the shared analysis system. Required.
	System *ser.System
	// Workers bounds concurrent jobs (default: one per CPU).
	Workers int
	// QueueDepth bounds waiting jobs before submissions bounce with
	// 503 (default 64).
	QueueDepth int
	// MaxGates rejects circuits larger than this many gates
	// (default 50000).
	MaxGates int
	// MaxVectors caps a request's random-vector count (default 200000).
	MaxVectors int
	// MaxCycles caps a sequential request's multi-cycle horizon
	// (default 1024) — fault propagation costs one frame evaluation
	// per flop per cycle.
	MaxCycles int
	// MaxSeqFrames caps a sequential request's total fault-propagation
	// work, cycles × flops frame evaluations (default 65536). The
	// per-axis limits alone would let one request multiply MaxGates ×
	// MaxVectors work by another factor of millions.
	MaxSeqFrames int
	// MaxBatchItems caps the total item count of one batch request
	// (default 64).
	MaxBatchItems int
	// MaxBodyBytes caps a request body (default 4 MiB) so an oversized
	// netlist is rejected while streaming, not after buffering.
	MaxBodyBytes int64
	// KeepJobs bounds the job store (default 1024 finished jobs).
	KeepJobs int
	// CompiledCacheGates bounds the content-addressed compiled-circuit
	// cache: total gate records across all cached netlists (default
	// 500,000 — roughly a hundred ISCAS-scale circuits). Built-in
	// benchmarks are keyed by name; inline netlists by the SHA-256 of
	// their canonical .bench form, so whitespace/comment/line-order
	// permutations of one netlist share a single compiled artifact.
	CompiledCacheGates int64
	// ArtifactDir, when set, backs the compiled-circuit cache with a
	// persistent on-disk artifact store (engine.ArtifactStore): every
	// compile is saved as a versioned, checksummed artifact keyed by
	// the netlist's content hash, and a restarted process serves its
	// first request for a previously-seen netlist from disk without
	// recompiling. Corrupt or truncated artifacts are detected by
	// checksum, removed, and recompiled — they can never poison a
	// result. If the directory cannot be opened the server logs the
	// error and falls back to the purely in-memory cache.
	ArtifactDir string
	// Journal, when non-nil, makes asynchronous jobs durable: accepted
	// submissions, state transitions and results are written through
	// it, and New replays it so a restarted server resumes pending
	// jobs and serves completed results under their original IDs. The
	// caller owns the journal (open it before New, close it after
	// Shutdown/Close).
	Journal *journal.Journal
	// JobTimeout bounds an async job's total wall clock — queueing,
	// every attempt, and backoff between attempts (default 15m;
	// negative disables the deadline).
	JobTimeout time.Duration
	// MaxAttempts bounds execution attempts per async job before the
	// failure becomes terminal (default 3).
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry; it doubles
	// per attempt up to RetryMaxDelay, with jitter (defaults 100ms and
	// 5s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// ShardName, when set, labels this process's GET /metrics snapshot
	// (MetricsResponse.Shard) so that in a multi-node deployment the
	// per-process counters and latency quantiles stay attributable
	// after a router namespaces them. Purely observational — it does
	// not change routing.
	ShardName string
	// Logger receives the server's structured log records (request
	// traces, retry/recovery events). Nil selects slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.Workers(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 50000
	}
	if c.MaxVectors <= 0 {
		c.MaxVectors = 200000
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 1024
	}
	if c.MaxSeqFrames <= 0 {
		c.MaxSeqFrames = 65536
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.KeepJobs <= 0 {
		c.KeepJobs = 1024
	}
	switch {
	case c.JobTimeout == 0:
		c.JobTimeout = 15 * time.Minute
	case c.JobTimeout < 0:
		c.JobTimeout = 0 // explicit "no deadline"
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 5 * time.Second
	}
	return c
}

// Server is the HTTP analysis service. Create with New, mount as an
// http.Handler, Close on shutdown.
type Server struct {
	cfg    Config
	sys    *ser.System
	queue  *par.Queue
	jobs   *jobStore
	met    *metrics
	mux    *http.ServeMux
	ccache *ser.CompiledCache
	jnl    *journal.Journal
	log    *slog.Logger
	dbg    *debugRing

	// ready flips true once journal replay has re-enqueued the previous
	// incarnation's pending jobs; draining flips true when Shutdown
	// begins. Both feed /readyz.
	ready    atomic.Bool
	draining atomic.Bool

	// idem maps Idempotency-Key values to their accepted jobs, FIFO
	// bounded by KeepJobs; seeded from the journal on restart so a
	// client retrying a submission across our crash still deduplicates.
	idemMu    sync.Mutex
	idem      map[string]*job
	idemOrder []string

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a Server around the shared system.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.System == nil {
		panic("serd: Config.System is required")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	ccache := ser.NewCompiledCache(cfg.CompiledCacheGates)
	if cfg.ArtifactDir != "" {
		ac, err := ser.NewCompiledCacheWithArtifacts(cfg.CompiledCacheGates, cfg.ArtifactDir)
		if err != nil {
			logger.Error("artifact store unavailable; compiled cache is in-memory only",
				"dir", cfg.ArtifactDir, "err", err)
		} else {
			ccache = ac
			logger.Info("compiled-circuit artifacts enabled", "dir", cfg.ArtifactDir)
		}
	}
	s := &Server{
		cfg:    cfg,
		sys:    cfg.System,
		queue:  par.NewQueue(cfg.Workers, cfg.QueueDepth),
		jobs:   newJobStore(cfg.KeepJobs),
		met:    newMetrics(),
		mux:    http.NewServeMux(),
		ccache: ccache,
		jnl:    cfg.Journal,
		log:    logger,
		dbg:    &debugRing{},
		idem:   make(map[string]*job),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/analyze", s.counted("analyze", s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/optimize", s.counted("optimize", s.handleOptimize))
	s.mux.HandleFunc("POST /v1/susceptibility", s.counted("susceptibility", s.handleSusceptibility))
	s.mux.HandleFunc("POST /v1/batch", s.counted("batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.counted("jobs", s.handleJob))
	s.mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.counted("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.counted("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /debug/requests", s.counted("debug", s.handleDebugRequests))
	if s.jnl != nil {
		s.restoreJournal()
	}
	s.ready.Store(true)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels async jobs and drains the worker pool.
func (s *Server) Close() {
	s.draining.Store(true)
	s.baseCancel()
	s.queue.Close()
}

// Shutdown gracefully stops the server: new submissions are refused
// (and /readyz reports not-ready), jobs already executing run to
// completion with their terminal states journaled, and jobs still
// waiting in the FIFO are skipped without running — with a journal
// they stay durably "queued" and resume on the next start. If ctx
// expires before the drain finishes, Shutdown falls back to Close
// (cancel everything) and returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.queue.Drain()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
}

// writeJSON emits a JSON body with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the error wire form and bumps the error counter.
// The request ID the shell stamped on the response headers is echoed
// in the body so an error caught in a client log can be matched to
// the server-side trace.
func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.errors.Add(1)
	s.writeJSON(w, status, serclient.ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get(trace.HeaderRequestID),
	})
}

// decode reads a JSON request body under the size limit. On failure it
// has already written the HTTP error.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// loaded is a resolved circuit reference: the compiled handle, the
// request's display name, and — for inline netlists, whose canonical
// form may permute flop order relative to the submitted declaration
// order — a remapper translating a declaration-order init_state into
// the canonical circuit's DFF order.
type loaded struct {
	h       *ser.Compiled
	display string
	// key is the compiled-cache key: "name:<benchmark>" for built-ins,
	// "sha256:<hex>" (the canonical content address) for inline
	// netlists. Async journaling uses it to content-address spilled
	// netlist bodies.
	key string
	// remapInit is nil when no translation is needed (built-ins, or
	// inline netlists whose flop order the canonical form preserves).
	// It requires len(in) == flop count; callers validate first.
	remapInit func(in []bool) []bool
}

// loadCompiled resolves a request's circuit reference — a built-in
// benchmark name or an inline .bench netlist — through the
// content-addressed compiled-circuit cache, and enforces the size
// limit. Benchmarks are keyed "name:<benchmark>"; inline netlists are
// parsed, keyed by the SHA-256 of their canonical form, and analyzed
// in that canonical form, so any whitespace/comment/line-order
// permutation of one netlist maps to one compiled artifact and one
// set of results (init_state is remapped through the same
// permutation, so its documented declaration-order meaning survives
// canonicalization).
func (s *Server) loadCompiled(circuit, netlist, name string) (loaded, error) {
	var ld loaded
	var err error
	ld.display = circuit
	switch {
	case circuit != "" && netlist != "":
		return ld, fmt.Errorf("set exactly one of circuit and netlist, not both")
	case circuit != "":
		// The size check lives inside the build so an over-limit
		// benchmark is rejected (errors are never cached) instead of
		// polluting the cache with entries no request may analyze;
		// cached entries therefore always satisfy the server's limit.
		ld.key = "name:" + circuit
		ld.h, err = s.ccache.Get(ld.key, func() (*ser.Circuit, error) {
			c, err := ser.Benchmark(circuit)
			if err != nil {
				return nil, err
			}
			return c, s.checkGates(c)
		})
	case netlist != "":
		if name == "" {
			name = "inline"
		}
		ld.display = name
		var c *ser.Circuit
		c, err = ser.ParseBench(strings.NewReader(netlist), name)
		if err != nil {
			return ld, err
		}
		// Enforce the size limit before hashing/compiling: an oversized
		// netlist must cost parse time only.
		if err = s.checkGates(c); err != nil {
			return ld, err
		}
		var canon *ser.Circuit
		var key string
		canon, key, err = ser.CanonicalContent(c)
		if err != nil {
			return ld, err
		}
		ld.key = key
		ld.h, err = s.ccache.Get(key, func() (*ser.Circuit, error) {
			return canon, nil
		})
		if err == nil {
			ld.remapInit = initRemapper(c, ld.h.Circuit())
		}
	default:
		return ld, fmt.Errorf("set one of circuit (benchmark name) or netlist (.bench body)")
	}
	return ld, err
}

// initRemapper returns a permutation from the submitted circuit's
// declaration-order DFF list to the canonical circuit's DFF order
// (matching by flop name — canonicalization preserves names), or nil
// when the orders already agree. Flop counts always match: the
// canonical form is a structural copy.
func initRemapper(submitted, canonical *ser.Circuit) func([]bool) []bool {
	canonIdx := make(map[string]int, len(canonical.DFFs()))
	for j, id := range canonical.DFFs() {
		canonIdx[canonical.Gates[id].Name] = j
	}
	perm := make([]int, len(submitted.DFFs()))
	identity := true
	for i, id := range submitted.DFFs() {
		perm[i] = canonIdx[submitted.Gates[id].Name]
		if perm[i] != i {
			identity = false
		}
	}
	if identity {
		return nil
	}
	return func(in []bool) []bool {
		out := make([]bool, len(in))
		for i, v := range in {
			out[perm[i]] = v
		}
		return out
	}
}

// checkGates enforces the circuit-size limit.
func (s *Server) checkGates(c *ser.Circuit) error {
	if n := c.NumGates(); n > s.cfg.MaxGates {
		return fmt.Errorf("circuit has %d gates, limit is %d", n, s.cfg.MaxGates)
	}
	return nil
}

// checkVectors enforces the vector-count limit.
func (s *Server) checkVectors(vectors int) error {
	if vectors < 0 {
		return fmt.Errorf("vectors must be >= 0")
	}
	if vectors > s.cfg.MaxVectors {
		return fmt.Errorf("vectors %d exceeds limit %d", vectors, s.cfg.MaxVectors)
	}
	return nil
}

// checkAnalyze enforces the shared analysis limits (vectors plus the
// sequential cycle horizon) for both the analyze and susceptibility
// flows.
func (s *Server) checkAnalyze(vectors, cycles int, initState []bool) error {
	if err := s.checkVectors(vectors); err != nil {
		return err
	}
	if cycles < 0 {
		return fmt.Errorf("cycles must be >= 0")
	}
	if cycles > s.cfg.MaxCycles {
		return fmt.Errorf("cycles %d exceeds limit %d", cycles, s.cfg.MaxCycles)
	}
	if cycles == 0 && len(initState) > 0 {
		return fmt.Errorf("init_state requires cycles >= 1")
	}
	return nil
}

// checkApprox enforces the sampled-mode limits: combinational flow
// only, non-negative tuning fields, and the per-batch vector count
// under the same MaxVectors cap the exact mode honors. The worst-case
// total work is then bounded by MaxBatches batches of a legal size.
func (s *Server) checkApprox(approx *serclient.ApproxRequest, cycles int) error {
	if approx == nil {
		return nil
	}
	if cycles > 0 {
		return fmt.Errorf("approx is not supported with the sequential flow (cycles >= 1)")
	}
	if approx.RelErr < 0 || approx.Confidence < 0 || approx.BatchVectors < 0 || approx.MaxBatches < 0 {
		return fmt.Errorf("approx fields must be >= 0")
	}
	if err := s.checkVectors(approx.BatchVectors); err != nil {
		return fmt.Errorf("approx batch_vectors: %v", err)
	}
	return nil
}

// checkSequentialShape enforces the limits that need the resolved
// circuit: the init_state length and the joint cycles × flops work
// budget (fault propagation costs one frame evaluation per flop per
// cycle, so the per-axis caps alone would not bound a request's work).
func (s *Server) checkSequentialShape(c *ser.Circuit, cycles int, initState []bool) error {
	if cycles == 0 {
		return nil
	}
	flops := len(c.DFFs())
	if n := len(initState); n > 0 && n != flops {
		return fmt.Errorf("init_state has %d bits for %d flops", n, flops)
	}
	if work := cycles * max(flops, 1); work > s.cfg.MaxSeqFrames {
		return fmt.Errorf("cycles x flops = %d exceeds limit %d; lower cycles or analyze a smaller netlist", work, s.cfg.MaxSeqFrames)
	}
	return nil
}

// submit wraps run as a synchronous job and enqueues it. base is the
// context the job's own context derives from — the request context,
// so a client disconnect cancels the job. blocking selects
// Queue.Submit over Queue.TrySubmit (used by batch items so a large
// batch throttles instead of bouncing).
func (s *Server) submit(kind string, base context.Context, blocking bool, run func(ctx context.Context) (any, error)) (*job, error) {
	jobCtx, cancel := context.WithCancel(base)
	j := s.jobs.create(kind, trace.RequestID(base), jobCtx, cancel)
	fn := func(ctx context.Context) { s.runJob(j, run) }
	var err error
	if blocking {
		err = s.queue.Submit(jobCtx, fn)
	} else {
		err = s.queue.TrySubmit(jobCtx, fn)
	}
	if err != nil {
		s.finishJob(j, nil, err)
		return nil, err
	}
	return j, nil
}

// finishJob records the terminal state plus the latency and
// cancellation metrics, mirrors the terminal event to the journal,
// and releases the job's context. Safe to call more than once: only
// the first transition to a terminal state does anything.
func (s *Server) finishJob(j *job, res any, err error) {
	status, first := s.jobs.finish(j, res, err)
	if !first {
		return
	}
	switch status {
	case serclient.JobCanceled:
		s.met.canceled.Add(1)
	case serclient.JobDone:
		s.met.recordLatency(j.kind, float64(time.Since(j.created))/float64(time.Millisecond))
	}
	if j.journaled {
		s.journalTerminal(j, status, res, err)
	}
	j.cancel()
}

// instrumented wraps a job body with the shell every analysis flow
// shares: elapsed timing, the characterization counter delta feeding
// the library cache-hit metric, and per-stage span collection. run
// returns the response plus a pointer to its ElapsedMS field for the
// shell to fill. Each job gets its own span recorder — batch items
// sharing one request must not interleave their stage lists — and the
// spans are merged into the request-level recorder (when the job
// context carries one) for the /debug/requests ring. When timings is
// set the spans are also attached to the response as its opt-in
// timings block.
func (s *Server) instrumented(timings bool, run func(ctx context.Context) (any, *float64, error)) func(ctx context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		parent := trace.RecorderFrom(ctx)
		rec := &trace.Recorder{}
		ctx = trace.WithRecorder(ctx, rec)
		t0 := time.Now()
		before := s.sys.Characterizations()
		res, elapsed, err := run(ctx)
		for _, sp := range rec.Spans() {
			parent.Add(sp) // nil-safe
		}
		if err != nil {
			return nil, err
		}
		if s.sys.Characterizations() == before {
			s.met.cacheHits.Add(1)
		}
		*elapsed = float64(time.Since(t0)) / float64(time.Millisecond)
		if timings {
			setTimings(res, timingsReport(rec.Spans(), *elapsed))
		}
		return res, nil
	}
}

// sequentialOptions and analysisOptions assemble the flow options the
// analyze and susceptibility endpoints share, so a new knob cannot be
// wired into one endpoint and silently missed in the other.
func sequentialOptions(vectors int, seed uint64, poLoad float64, cycles int, initState []bool) ser.SequentialOptions {
	return ser.SequentialOptions{
		Cycles:    cycles,
		Vectors:   vectors,
		Seed:      seed,
		POLoad:    poLoad,
		InitState: initState,
	}
}

func analysisOptions(vectors int, seed uint64, poLoad float64, approx *serclient.ApproxRequest) ser.AnalysisOptions {
	return ser.AnalysisOptions{
		Vectors: vectors,
		Seed:    seed,
		POLoad:  poLoad,
		Approx:  approxOptions(approx),
	}
}

// approxOptions maps the wire Approx block to the flow options; nil —
// the exact mode — passes through untouched.
func approxOptions(req *serclient.ApproxRequest) *ser.ApproxOptions {
	if req == nil {
		return nil
	}
	return &ser.ApproxOptions{
		RelErr:       req.RelErr,
		Confidence:   req.Confidence,
		BatchVectors: req.BatchVectors,
		MaxBatches:   req.MaxBatches,
	}
}

// sequentialResult maps a sequential report's summary to its wire
// block.
func sequentialResult(rep *ser.SequentialReport) *serclient.SequentialResult {
	return &serclient.SequentialResult{
		Cycles:   rep.Cycles,
		Flops:    rep.Flops,
		DirectU:  rep.DirectU,
		LatchedU: rep.LatchedU,
		FIT:      rep.FIT,
	}
}

// runAnalyze builds the job body for one analysis request — the
// combinational ASERTA flow, or the multi-cycle sequential flow when
// req.Cycles > 0. The flow only decides the U total, the per-gate
// rows and the sequential block; the shared shell lives in
// instrumented.
func (s *Server) runAnalyze(h *ser.Compiled, name string, req serclient.AnalyzeRequest) func(ctx context.Context) (any, error) {
	return s.instrumented(req.Timings, func(ctx context.Context) (any, *float64, error) {
		resp := &serclient.AnalyzeResponse{Circuit: name}
		if req.Cycles > 0 {
			rep, err := s.sys.AnalyzeSequentialCompiledContext(ctx, h,
				sequentialOptions(req.Vectors, req.Seed, req.POLoad, req.Cycles, req.InitState))
			if err != nil {
				return nil, nil, err
			}
			resp.Gates, resp.U = len(rep.Gates), rep.U
			resp.Sequential = sequentialResult(rep)
			resp.GateReports = gateRows(req.Top, rep.Gates, rep.Softest, func(g ser.SequentialGateReport) serclient.GateResult {
				return serclient.GateResult{Name: g.Name, U: g.U, GenWidth: g.GenWidth, Delay: g.Delay}
			})
		} else {
			rep, err := s.sys.AnalyzeCompiledContext(ctx, h,
				analysisOptions(req.Vectors, req.Seed, req.POLoad, req.Approx))
			if err != nil {
				return nil, nil, err
			}
			resp.Gates, resp.U = len(rep.Gates), rep.U
			if rep.Approx {
				resp.Approx = &serclient.ApproxResult{
					UCILow:      rep.UCILow,
					UCIHigh:     rep.UCIHigh,
					Confidence:  rep.Confidence,
					Batches:     rep.Batches,
					VectorsUsed: rep.VectorsUsed,
				}
			}
			resp.GateReports = gateRows(req.Top, rep.Gates, rep.Softest, func(g ser.GateReport) serclient.GateResult {
				return serclient.GateResult{Name: g.Name, U: g.U, GenWidth: g.GenWidth, Delay: g.Delay}
			})
		}
		return resp, &resp.ElapsedMS, nil
	})
}

// gateRows applies the shared per-gate report shaping — Top-softest
// truncation and wire conversion — for either analysis flow.
func gateRows[T any](top int, all []T, softest func(int) []T, row func(T) serclient.GateResult) []serclient.GateResult {
	gates := all
	if top > 0 {
		gates = softest(top)
	}
	out := make([]serclient.GateResult, 0, len(gates))
	for _, g := range gates {
		out = append(out, row(g))
	}
	return out
}

// runSusceptibility builds the job body for one susceptibility
// request: the same analysis flows as runAnalyze (compiled-cache warm
// path included), reduced to the ranked per-gate contribution product
// via Report.Susceptibility, so the wire result is exactly the
// in-process ranking.
func (s *Server) runSusceptibility(h *ser.Compiled, name string, req serclient.SusceptibilityRequest) func(ctx context.Context) (any, error) {
	return s.instrumented(req.Timings, func(ctx context.Context) (any, *float64, error) {
		resp := &serclient.SusceptibilityResponse{Circuit: name}
		var entries []ser.SusceptibilityEntry
		if req.Cycles > 0 {
			rep, err := s.sys.AnalyzeSequentialCompiledContext(ctx, h,
				sequentialOptions(req.Vectors, req.Seed, req.POLoad, req.Cycles, req.InitState))
			if err != nil {
				return nil, nil, err
			}
			entries = rep.Susceptibility()
			resp.Gates, resp.U = len(rep.Gates), rep.U
			resp.Sequential = sequentialResult(rep)
		} else {
			rep, err := s.sys.AnalyzeCompiledContext(ctx, h,
				analysisOptions(req.Vectors, req.Seed, req.POLoad, nil))
			if err != nil {
				return nil, nil, err
			}
			entries = rep.Susceptibility()
			resp.Gates, resp.U = len(rep.Gates), rep.U
		}
		if req.Top > 0 && req.Top < len(entries) {
			entries = entries[:req.Top]
		}
		resp.Entries = make([]serclient.SusceptibilityEntry, len(entries))
		for i, e := range entries {
			resp.Entries[i] = serclient.SusceptibilityEntry{Name: e.Name, U: e.U, Share: e.Share, CumShare: e.CumShare}
		}
		return resp, &resp.ElapsedMS, nil
	})
}

// runOptimize builds the job body for one optimization request; it
// shares the instrumented shell with the analysis flows.
func (s *Server) runOptimize(h *ser.Compiled, name string, req serclient.OptimizeRequest) func(ctx context.Context) (any, error) {
	return s.instrumented(req.Timings, func(ctx context.Context) (any, *float64, error) {
		res, err := s.sys.OptimizeCompiledContext(ctx, h, ser.OptimizeOptions{
			VDDs:       req.VDDs,
			Vths:       req.Vths,
			Iterations: req.Iterations,
			MaxBasis:   req.MaxBasis,
			Vectors:    req.Vectors,
			Seed:       req.Seed,
			Method:     req.Method,
		})
		if err != nil {
			return nil, nil, err
		}
		resp := &serclient.OptimizeResponse{
			Circuit:     name,
			UDecrease:   res.UDecrease,
			AreaRatio:   res.AreaRatio,
			EnergyRatio: res.EnergyRatio,
			DelayRatio:  res.DelayRatio,
			BaselineU:   res.BaselineU,
			OptimizedU:  res.OptimizedU,
		}
		return resp, &resp.ElapsedMS, nil
	})
}

// dispatch runs one request either synchronously (waiting for the job
// and writing its result) or asynchronously (202 + job id, with the
// durability pipeline: journaling, idempotency, retries, shedding).
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind string, async bool, meta asyncMeta, run func(ctx context.Context) (any, error)) {
	if async {
		s.dispatchAsync(w, kind, meta, run)
		return
	}
	j, err := s.submit(kind, r.Context(), false, run)
	if err != nil {
		s.submitError(w, err)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone; the job context is derived from the request
		// context, so the job unwinds on its own. Nothing to write.
		return
	}
	resp := s.jobs.response(j)
	switch resp.Status {
	case serclient.JobDone:
		switch {
		case resp.Analyze != nil:
			s.writeJSON(w, http.StatusOK, resp.Analyze)
		case resp.Susceptibility != nil:
			s.writeJSON(w, http.StatusOK, resp.Susceptibility)
		default:
			s.writeJSON(w, http.StatusOK, resp.Optimize)
		}
	case serclient.JobCanceled:
		s.writeError(w, http.StatusServiceUnavailable, "job canceled: %s", resp.Error)
	default:
		s.writeError(w, http.StatusInternalServerError, "%s", resp.Error)
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req serclient.AnalyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.checkAnalyze(req.Vectors, req.Cycles, req.InitState); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.checkApprox(req.Approx, req.Cycles); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ld, err := s.loadChecked(req.Circuit, req.Netlist, req.Name, req.Cycles, &req.InitState)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.countModes(req.Approx != nil)
	var meta asyncMeta
	if req.Async {
		// Journal the request in canonical form: the netlist body is
		// stored once (inline or content-addressed blob), and InitState
		// was already remapped to canonical flop order by loadChecked,
		// so replay needs no further translation.
		jreq := req
		jreq.Netlist = ""
		meta = s.newAsyncMeta(r, jreq, ld)
	}
	s.dispatch(w, r, "analyze", req.Async, meta, s.runAnalyze(ld.h, ld.display, req))
}

func (s *Server) handleSusceptibility(w http.ResponseWriter, r *http.Request) {
	var req serclient.SusceptibilityRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.checkSusceptibility(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ld, err := s.loadChecked(req.Circuit, req.Netlist, req.Name, req.Cycles, &req.InitState)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var meta asyncMeta
	if req.Async {
		jreq := req
		jreq.Netlist = ""
		meta = s.newAsyncMeta(r, jreq, ld)
	}
	s.dispatch(w, r, "susceptibility", req.Async, meta, s.runSusceptibility(ld.h, ld.display, req))
}

// checkSusceptibility enforces the request-only susceptibility limits.
func (s *Server) checkSusceptibility(req *serclient.SusceptibilityRequest) error {
	if req.Top < 0 {
		return fmt.Errorf("top must be >= 0")
	}
	return s.checkAnalyze(req.Vectors, req.Cycles, req.InitState)
}

// loadChecked is the one place a request's circuit reference is
// resolved and its circuit-dependent limits applied: compiled-cache
// resolution, the sequential cycles × flops budget and init_state
// length, and the in-place remap of a declaration-order init_state
// through the canonical flop permutation. Every flow that accepts a
// sequential request goes through it, so the three steps cannot
// diverge between endpoints.
func (s *Server) loadChecked(circuit, netlist, name string, cycles int, initState *[]bool) (loaded, error) {
	ld, err := s.loadCompiled(circuit, netlist, name)
	if err != nil {
		return ld, err
	}
	if err := s.checkSequentialShape(ld.h.Circuit(), cycles, *initState); err != nil {
		return ld, err
	}
	if ld.remapInit != nil && len(*initState) > 0 {
		*initState = ld.remapInit(*initState)
	}
	return ld, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req serclient.OptimizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.checkVectors(req.Vectors); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ld, err := s.loadCompiled(req.Circuit, req.Netlist, req.Name)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var meta asyncMeta
	if req.Async {
		jreq := req
		jreq.Netlist = ""
		meta = s.newAsyncMeta(r, jreq, ld)
	}
	s.dispatch(w, r, "optimize", req.Async, meta, s.runOptimize(ld.h, ld.display, req))
}

// handleBatch fans a batch's items onto the worker pool and reports
// every item's outcome in one response. Invalid items fail
// individually without poisoning the rest; submissions block (rather
// than bounce) when the queue is momentarily full, bounded by the
// request context.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req serclient.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	total := len(req.Analyze) + len(req.Optimize) + len(req.Susceptibility)
	if total == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if total > s.cfg.MaxBatchItems {
		s.writeError(w, http.StatusBadRequest, "batch has %d items, limit is %d", total, s.cfg.MaxBatchItems)
		return
	}

	resp := serclient.BatchResponse{
		Analyze:        make([]serclient.AnalyzeBatchItem, len(req.Analyze)),
		Optimize:       make([]serclient.OptimizeBatchItem, len(req.Optimize)),
		Susceptibility: make([]serclient.SusceptibilityBatchItem, len(req.Susceptibility)),
	}
	type pending struct {
		j       *job
		analyze int // index into resp.Analyze, or -1
		opt     int // index into resp.Optimize, or -1
		susc    int // index into resp.Susceptibility, or -1
	}
	var jobs []pending

	for i, ar := range req.Analyze {
		if ar.Async {
			resp.Analyze[i].Error = "async is not supported inside a batch; submit the item to /v1/analyze instead"
			continue
		}
		if err := s.checkAnalyze(ar.Vectors, ar.Cycles, ar.InitState); err != nil {
			resp.Analyze[i].Error = err.Error()
			continue
		}
		if err := s.checkApprox(ar.Approx, ar.Cycles); err != nil {
			resp.Analyze[i].Error = err.Error()
			continue
		}
		ld, err := s.loadChecked(ar.Circuit, ar.Netlist, ar.Name, ar.Cycles, &ar.InitState)
		if err != nil {
			resp.Analyze[i].Error = err.Error()
			continue
		}
		s.met.countModes(ar.Approx != nil)
		j, err := s.submit("analyze", r.Context(), true, s.runAnalyze(ld.h, ld.display, ar))
		if err != nil {
			resp.Analyze[i].Error = err.Error()
			continue
		}
		jobs = append(jobs, pending{j: j, analyze: i, opt: -1, susc: -1})
	}
	for i, or := range req.Optimize {
		if or.Async {
			resp.Optimize[i].Error = "async is not supported inside a batch; submit the item to /v1/optimize instead"
			continue
		}
		if err := s.checkVectors(or.Vectors); err != nil {
			resp.Optimize[i].Error = err.Error()
			continue
		}
		ld, err := s.loadCompiled(or.Circuit, or.Netlist, or.Name)
		if err != nil {
			resp.Optimize[i].Error = err.Error()
			continue
		}
		j, err := s.submit("optimize", r.Context(), true, s.runOptimize(ld.h, ld.display, or))
		if err != nil {
			resp.Optimize[i].Error = err.Error()
			continue
		}
		jobs = append(jobs, pending{j: j, analyze: -1, opt: i, susc: -1})
	}
	for i := range req.Susceptibility {
		sr := req.Susceptibility[i]
		if sr.Async {
			resp.Susceptibility[i].Error = "async is not supported inside a batch; submit the item to /v1/susceptibility instead"
			continue
		}
		if err := s.checkSusceptibility(&sr); err != nil {
			resp.Susceptibility[i].Error = err.Error()
			continue
		}
		ld, err := s.loadChecked(sr.Circuit, sr.Netlist, sr.Name, sr.Cycles, &sr.InitState)
		if err != nil {
			resp.Susceptibility[i].Error = err.Error()
			continue
		}
		j, err := s.submit("susceptibility", r.Context(), true, s.runSusceptibility(ld.h, ld.display, sr))
		if err != nil {
			resp.Susceptibility[i].Error = err.Error()
			continue
		}
		jobs = append(jobs, pending{j: j, analyze: -1, opt: -1, susc: i})
	}

	for _, p := range jobs {
		select {
		case <-p.j.done:
		case <-r.Context().Done():
			return // client gone; jobs unwind via their derived contexts
		}
		jr := s.jobs.response(p.j)
		switch {
		case p.analyze >= 0:
			if jr.Status == serclient.JobDone {
				resp.Analyze[p.analyze].Result = jr.Analyze
			} else {
				resp.Analyze[p.analyze].Error = jr.Error
			}
		case p.opt >= 0:
			if jr.Status == serclient.JobDone {
				resp.Optimize[p.opt].Result = jr.Optimize
			} else {
				resp.Optimize[p.opt].Error = jr.Error
			}
		case p.susc >= 0:
			if jr.Status == serclient.JobDone {
				resp.Susceptibility[p.susc].Result = jr.Susceptibility
			} else {
				resp.Susceptibility[p.susc].Error = jr.Error
			}
		}
	}
	for _, it := range resp.Analyze {
		if it.Result == nil {
			resp.Failed++
		}
	}
	for _, it := range resp.Optimize {
		if it.Result == nil {
			resp.Failed++
		}
	}
	for _, it := range resp.Susceptibility {
		if it.Result == nil {
			resp.Failed++
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j := s.jobs.get(id); j != nil {
		s.writeJSON(w, http.StatusOK, s.jobs.response(j))
		return
	}
	// Evicted from the in-memory store but still retained in the
	// journal: serve the journaled terminal state.
	if s.jnl != nil {
		if js := s.jnl.Lookup(id); js != nil {
			if resp, err := jobStateResponse(js); err == nil {
				s.writeJSON(w, http.StatusOK, resp)
				return
			}
		}
	}
	s.writeError(w, http.StatusNotFound, "unknown job %q", id)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, serclient.HealthResponse{
		OK:      true,
		UptimeS: time.Since(s.met.start).Seconds(),
	})
}

// handleReadyz reports routability: 503 while the journal is still
// replaying, while the queue has no room for another submission, or
// once shutdown has begun; 200 otherwise. Liveness stays on /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	depth := s.queue.Depth()
	resp := serclient.ReadyResponse{
		Replaying:  !s.ready.Load(),
		Saturated:  depth >= s.cfg.QueueDepth,
		Draining:   s.draining.Load(),
		QueueDepth: depth,
	}
	resp.Ready = !resp.Replaying && !resp.Saturated && !resp.Draining
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, resp)
}

// handleMetrics serves the JSON metrics snapshot by default, or the
// Prometheus text exposition with ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := s.met.snapshot(
		s.queue.Depth(), s.queue.Running(), s.queue.Workers(),
		s.sys.Characterizations(), s.ccache.Stats(),
		s.ccache.ArtifactsEnabled(), s.ccache.ArtifactStats(),
	)
	resp.Shard = s.cfg.ShardName
	if r.URL.Query().Get("format") == "prometheus" {
		s.writePrometheus(w, &resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}
