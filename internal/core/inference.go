package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/prof"
	"edgetune/internal/obs/slo"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// InferRequest asks the Inference Tuning Server to find the optimal
// inference configuration for one architecture on one device.
type InferRequest struct {
	// Signature identifies the architecture (workload.Signature).
	Signature string
	// FLOPsPerSample and Params describe the paper-scale model.
	FLOPsPerSample float64
	Params         float64
	// Client keys the admission rate limiter; it defaults to the
	// signature, so per-trial traffic is naturally per-client.
	Client string
	// Priority orders the request in the intake queue; the zero value
	// is critical (see Priority).
	Priority Priority
	// SubmitTime places the request on the simulated timeline for
	// tracing; the tuner stamps it with the sheltering trial's start.
	// It has no effect on scheduling.
	SubmitTime time.Duration
}

// InferOutcome is the server's reply.
type InferOutcome struct {
	Entry store.Entry
	// Cached reports whether the result came from the historical store.
	Cached bool
	// TuningCost is the simulated cost of the inference trials run (zero
	// when cached). Failed attempts still charge their cost, so
	// resilience is inference-aware too.
	TuningCost perfmodel.Cost
	// Device names the pool device that served the winning result.
	Device string
	// Latency is the request's effective serving time on the simulated
	// clock — with a winning hedge, the hedged finish time, strictly
	// below what the straggling primary alone would have taken.
	Latency time.Duration
	// Hedged reports that a speculative second attempt was issued.
	Hedged bool
	// Err carries a per-request failure.
	Err error
}

// InferenceServerOptions configures the server.
type InferenceServerOptions struct {
	// Device is the edge target being emulated (the preferred pool
	// device when Pool is unset).
	Device device.Device
	// Pool lists the devices the server routes across; it defaults to
	// [Device]. With two or more devices, straggling requests hedge to
	// the next-best healthy one.
	Pool []device.Device
	// Space is the inference parameter space (batch, cores, frequency).
	Space *search.Space
	// Algo names the search strategy; the default is BOHB, and a grid
	// can be chosen when the range of inference parameters is small
	// (§3.1's example pairing).
	Algo string
	// Metric is the inference objective (runtime or energy).
	Metric Metric
	// Trials is the number of inference configurations evaluated per
	// uncached request.
	Trials int
	// Workers sets the pipelining width (Figure 6): how many requests
	// are tuned concurrently.
	Workers int
	// Store is the shared historical database; required.
	Store *store.Store
	// Seed drives deterministic, order-independent tuning: each
	// request's sampler is seeded from the signature.
	Seed uint64
	// Fault optionally injects device-flap, brown-out, store-write,
	// dropped-reply, and overload-burst faults (nil = none).
	Fault *fault.Injector
	// Recorder accumulates resilience counters (nil = not recorded).
	Recorder *counters.Resilience
	// MaxAttempts bounds the per-request tuning attempts when injected
	// faults make the device flap or the store write fail (default 3).
	MaxAttempts int
	// QueueLimit bounds queued plus in-flight requests; submissions
	// beyond it are shed with ErrOverloaded (default 64).
	QueueLimit int
	// RateLimit enables the per-client token bucket when positive: each
	// client earns RateLimit tokens per submission tick, spends one per
	// request, and holds at most RateBurst (0 = no rate limiting).
	RateLimit float64
	// RateBurst is the token bucket capacity (default 8).
	RateBurst int
	// HedgeFactor multiplies the perfmodel-derived expected tuning
	// duration into the straggler deadline (default 2).
	HedgeFactor float64
	// Trace receives deterministic serving spans (nil = tracing
	// disabled; the hooks are single-pointer-check no-ops).
	Trace *obs.Tracer
	// SLO receives per-request service-level events (nil = no SLO
	// accounting). The server registers a serve-latency objective and an
	// admission-rejection objective on it.
	SLO *slo.Evaluator
	// Autoscale enables the SLO-driven device-pool autoscaler and its
	// graceful-degradation ladder (nil = static pool). Zero fields in
	// the config select the documented defaults.
	Autoscale *autoscale.Config
	// Flight receives the compact always-on event stream (admission
	// outcomes, autoscale decisions, breaker/health transitions) for the
	// incident flight recorder (nil = not recorded; every hook is a
	// single-pointer-check no-op).
	Flight *flight.Recorder

	// Profile applies pprof labels (tenant, priority, ProfLabels) to
	// each request's serve path. Workers run on their own goroutines,
	// so labels set by the submitting caller do not reach them; the
	// worker re-applies them from the job's own fields.
	Profile bool
	// ProfLabels is extra label pairs applied with the built-ins
	// (cluster shard identity, typically). Ignored unless Profile.
	ProfLabels []string
}

const (
	// requestTimeout bounds one request's serving wall time, and how
	// long the tuner waits for the reply it pipelined behind a trial.
	requestTimeout = 30 * time.Second
	// sloServeLatency is the latency objective's threshold: a served
	// request is "good" when its simulated serving time is within it.
	sloServeLatency = 60 * time.Second
)

func (o *InferenceServerOptions) normalise() error {
	if o.Space == nil {
		return errors.New("core: inference server needs a space")
	}
	if o.Store == nil {
		return errors.New("core: inference server needs a store")
	}
	if o.Metric == "" {
		o.Metric = MetricRuntime
	}
	if err := o.Metric.Validate(); err != nil {
		return err
	}
	if o.Algo == "" {
		o.Algo = search.AlgoBOHB
	}
	if o.Trials <= 0 {
		o.Trials = 24
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if len(o.Pool) == 0 {
		o.Pool = []device.Device{o.Device}
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 64
	}
	if o.RateLimit < 0 {
		return errors.New("core: negative rate limit")
	}
	if o.RateBurst <= 0 {
		o.RateBurst = 8
	}
	if o.HedgeFactor <= 0 {
		o.HedgeFactor = 2
	}
	return nil
}

// InferenceServer is the asynchronous inference tuning component
// (§3.4), hardened for sustained overload and device degradation.
// Requests pass an admission gate (bounded in-system queue, per-client
// token bucket, priority preemption) before a worker pool tunes them on
// a health-managed device pool: per-device circuit breakers plus EWMA
// health scores with quarantine/probation, and speculative hedging to
// the next-best device when the primary straggles past its
// perfmodel-derived deadline. Completed results land in the historical
// store through a write-behind buffer; duplicate in-flight requests are
// coalesced. Drain stops it gracefully — in-flight work completes, new
// submissions fail with ErrServerClosed, pending store writes are
// flushed — and Close at once.
type InferenceServer struct {
	opts InferenceServerOptions
	m    servingMetrics
	// reg is the recorder's registry (nil = metrics off); kept for the
	// per-tenant rejection counters, whose names are data-dependent.
	reg *obs.Registry

	mu        sync.Mutex
	pending   map[string]*call // in-flight leader per signature
	seq       int              // submission sequence, for fault sites
	delivered int              // leaders finished so far; see cached

	adm    *admission
	pool   *devicePool
	writes *store.WriteBehind
	scale  *scaler // nil when autoscaling is disabled
	// noHedging is the hedging tests' control arm: set before the first
	// Submit, it turns speculative re-issues off on a multi-device pool.
	noHedging bool

	// SLO objectives (nil = no accounting; Record no-ops).
	sloLatency       *slo.Objective
	sloRejects       *slo.Objective
	sloTenantRejects *slo.Objective
	sloCapacity      *slo.Objective

	wg sync.WaitGroup

	// hard is the server's lifetime: cancelled by Close, or by Drain
	// once its deadline has passed, it stops every request being served.
	// What turns new work away is adm.isRejecting; shutdown runs once.
	hard     context.Context
	stop     context.CancelFunc
	shut     sync.Once
	closeErr error
}

// servingMetrics caches the server's registry instruments; all fields
// are nil (no-op) when no recorder registry is configured.
type servingMetrics struct {
	requests  *obs.Counter
	cacheHits *obs.Counter
	coalesced *obs.Counter
	latencyMS *obs.Histogram
	queue     *obs.Gauge
	// queueEnqueue samples the queued depth (excluding in-flight work)
	// right after each admit; admitWait samples how many requests sat
	// ahead of each admitted one. Both are queue positions taken under
	// the admission lock, so same-seed runs record identical values.
	queueEnqueue *obs.Histogram
	admitWait    *obs.Histogram
}

// call is one Submit on its way to its reply. It starts on Submit's
// stack, where a cache hit ends it; join moves the one that will lead a
// tuning run to the heap, and from then on whichever goroutine takes it
// out of the admission queue owns it and finishes it.
type call struct {
	InferRequest
	// ctx is the submitting caller's context; honoured while the call
	// is queued and between inference trials.
	ctx context.Context
	// out receives the reply. join clears it on a call that joined a
	// leader: the leader answers that caller, from its waiters.
	out     chan InferOutcome
	waiters []chan InferOutcome

	seq       int  // submission sequence number
	delivered int  // s.delivered at the last look-up; see cached
	opened    bool // took a sequence number: an event the SLO counts
	leads     bool // registered in s.pending

	// sp is the request span (nil when tracing is off). admSp is its
	// "admission" child, opened with the leader — before a worker can
	// open the "serve" child — so the two children's ordinals, and with
	// them their span IDs, never depend on who ran first.
	sp, admSp *obs.Span

	rt     route // the routed device
	served bool  // a worker ran the call on rt: no routing decision to undo
	// stop unhooks the call from ctx (nil when ctx is never cancelled).
	stop func() bool

	// queuedAhead and depthAtEnqueue are queue positions stamped by
	// admission.push under its lock (see the servingMetrics comment).
	queuedAhead    int
	depthAtEnqueue int
}

// NewInferenceServer starts the server's worker pool. Callers must
// Close it.
func NewInferenceServer(opts InferenceServerOptions) (*InferenceServer, error) {
	if err := opts.normalise(); err != nil {
		return nil, err
	}
	// A fault plan names exact sites — the Nth operation on a file — so
	// under one the store must see its appends in the same order on every
	// same-seed run: results are persisted inline on the worker's put
	// path. Everything else keeps the background flusher. Buffering,
	// read-through promotion and failed-flush retry are the same in both.
	var writes *store.WriteBehind
	if opts.Fault.Planned() {
		writes = store.NewSyncWriteBehind(opts.Store)
	} else {
		writes = store.NewWriteBehind(opts.Store)
	}
	s := &InferenceServer{
		opts:    opts,
		pending: make(map[string]*call),
		adm:     newAdmission(opts.QueueLimit, opts.RateLimit, opts.RateBurst),
		pool:    newDevicePool(opts.Pool, breakerThreshold, breakerCooldown, opts.Recorder),
		writes:  writes,
	}
	s.hard, s.stop = context.WithCancel(context.Background())
	s.pool.fr = opts.Flight
	if opts.Autoscale != nil {
		sc, err := newScaler(*opts.Autoscale, &s.opts)
		if err != nil {
			return nil, err
		}
		s.scale = sc
	}
	if reg := opts.Recorder.Registry(); reg != nil {
		s.reg = reg
		s.m = servingMetrics{
			requests:     reg.Counter("serving.requests"),
			cacheHits:    reg.Counter("serving.cache-hits"),
			coalesced:    reg.Counter("serving.coalesced"),
			latencyMS:    reg.Histogram("serving.latency.ms", obs.LatencyBucketsMS),
			queue:        reg.Gauge("serving.queue.depth"),
			queueEnqueue: reg.Histogram("serving.queue.depth.enqueue", obs.QueueDepthBuckets),
			admitWait:    reg.Histogram("serving.admission.wait.requests", obs.QueueDepthBuckets),
		}
		s.writes.Instrument(reg)
	}
	if opts.SLO != nil {
		s.sloLatency = opts.SLO.Register(slo.Spec{
			Name:        "serving/latency",
			Description: fmt.Sprintf("99%% of served requests finish within %v on the simulated clock", sloServeLatency),
			Target:      0.99,
		})
		s.sloRejects = opts.SLO.Register(slo.Spec{
			Name:        "serving/rejections",
			Description: "95% of submissions admitted (not shed, rate-limited, or preempted)",
			Target:      0.95,
		})
		s.sloTenantRejects = opts.SLO.Register(slo.Spec{
			Name:        "serving/tenant-rejections",
			Description: "99% of submissions clear the per-client token bucket (not rate-limited)",
			Target:      0.99,
		})
		if s.scale != nil {
			s.sloCapacity = opts.SLO.Register(slo.Spec{
				Name:        "serving/capacity",
				Description: "submissions find a routable device pool with in-system headroom",
				Target:      s.scale.ctl.Config().Target,
			})
		}
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close shuts the server down immediately: new submissions are
// rejected, in-flight requests are cancelled, queued ones are evicted
// with ErrServerClosed, and pending store writes are flushed. It is
// idempotent and safe to call concurrently. For a graceful stop that
// completes in-flight work, use Drain.
func (s *InferenceServer) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-expired deadline: straight to the hard path
	s.shutdown(ctx)
}

// Drain stops the server gracefully: new submissions fail with
// ErrServerClosed while queued and in-flight requests run to
// completion, then pending store writes are flushed. If ctx expires
// first, the remaining work is cancelled and evicted (their callers
// still receive typed outcomes). Drain returns nil when everything
// completed within the deadline.
func (s *InferenceServer) Drain(ctx context.Context) error {
	return s.shutdown(ctx)
}

func (s *InferenceServer) shutdown(ctx context.Context) error {
	s.shut.Do(func() {
		s.adm.reject()
		select {
		case <-s.adm.emptyCh:
		case <-ctx.Done():
			s.closeErr = ctx.Err()
			s.stop() // what is being served exits at its next trial
			for _, c := range s.adm.evictAll() {
				s.finish(c, "", InferOutcome{Err: fmt.Errorf("core: request evicted at shutdown: %w", ErrServerClosed)})
			}
			<-s.adm.emptyCh
		}
		s.adm.close()
		s.wg.Wait()
		s.stop()
		if werr := s.writes.Close(); werr != nil && s.closeErr == nil {
			s.closeErr = werr
		}
	})
	return s.closeErr
}

// FlushWrites synchronously drains the write-behind buffer into the
// store, used before checkpoint saves so persisted snapshots include
// every completed result.
func (s *InferenceServer) FlushWrites() error { return s.writes.Flush() }

// PendingWrites reports how many accepted results still sit in the
// write-behind buffer; it is zero after a successful Drain or Flush.
func (s *InferenceServer) PendingWrites() int { return s.writes.Pending() }

// LookupStored reads an entry for any pool device (preferred first)
// through the write-behind buffer, so callers building degraded
// fallbacks see results that have not reached the store yet. The walk
// covers the live pool — autoscaled replicas and retired devices
// included — so entries tuned on a since-retired replica still satisfy
// later duplicates.
func (s *InferenceServer) LookupStored(sig string) (store.Entry, error) {
	var lastErr error
	for _, name := range s.pool.names() {
		e, err := s.writes.Get(sig, name)
		if err == nil {
			return e, nil
		}
		lastErr = err
	}
	return store.Entry{}, lastErr
}

// Submit asynchronously requests tuning for req and returns a channel
// that will receive exactly one outcome. Duplicate submissions of the
// same in-flight signature share a single tuning run. Caller
// cancellation is honoured while the request is queued and while it is
// being tuned. Overload is shed with typed errors: ErrOverloaded when
// the bounded queue is full (background requests may additionally be
// preempted by critical ones), ErrRateLimited when the client's token
// bucket is empty, ErrServerClosed after Close/Drain, and a
// ErrCircuitOpen-wrapping error when no pool device is healthy.
func (s *InferenceServer) Submit(ctx context.Context, req InferRequest) <-chan InferOutcome {
	out := make(chan InferOutcome, 1)
	c := call{InferRequest: req, ctx: ctx, out: out}
	if err := s.open(&c); err != nil {
		s.finish(&c, "", InferOutcome{Err: err})
	} else if !s.cached(&c) {
		if lead := s.join(&c); lead != nil {
			s.admit(lead)
		}
	}
	return out
}

// open validates the call and makes it a submission: a sequence number,
// one autoscale tick, the root span, one count of serving.requests.
func (s *InferenceServer) open(c *call) error {
	if c.Signature == "" {
		return errors.New("core: request with empty signature")
	}
	if c.Client == "" {
		c.Client = c.Signature
	}
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	if s.adm.isRejecting() {
		return ErrServerClosed
	}
	s.mu.Lock()
	c.seq = s.seq
	s.seq++
	c.delivered = s.delivered
	s.mu.Unlock()
	c.opened = true

	// Tick the autoscaler before anything can short-circuit the
	// submission: every submission is one control-loop tick and one
	// capacity SLO event, cache hits included, so the tick stream is
	// exactly the submission sequence.
	s.autoscaleTick(c.InferRequest, c.seq)

	// The root span is keyed on the submission sequence, which is
	// deterministic for a deterministic submission order (the tuner
	// submits one request per trial and awaits each).
	if t := s.opts.Trace; t != nil {
		c.sp = t.Root(obs.TrackServing, "request", uint64(c.seq), c.SubmitTime,
			obs.Str("sig", c.Signature),
			obs.Str("client", c.Client),
			obs.Int("priority", int64(c.Priority)))
	}
	s.m.requests.Add(1)
	return nil
}

// cached is §3.4's table look-up: the historical store, read through
// the write-behind buffer and accepting any pool device's entry (a
// hedged win tuned on the secondary still satisfies later duplicates).
// A hit needs no device, so it bypasses admission and the pool; its
// reply can still be dropped in flight — the site is per-submission, so
// a resubmission rolls a fresh decision. It reports whether it ended the
// call, and when it did not it returns HOLDING s.mu, which join
// releases: the last look and the in-flight check are one step.
//
// The loop is for the submission that falls between a concurrent
// leader's two steps: its look-up ran before the leader's entry was
// written, and join's in-flight check would run after the leader
// finished and left pending. Finding neither, it would search what was
// just searched; so if any leader finished since the look-up, look
// again. A caller that awaits each request never takes a second turn.
func (s *InferenceServer) cached(c *call) bool {
	for {
		if e, err := s.LookupStored(c.Signature); err == nil {
			if ferr := s.failAt(fault.DroppedReply, "", c.Signature, c.seq); ferr != nil {
				s.finish(c, "dropped-reply", InferOutcome{Err: ferr})
			} else {
				s.m.cacheHits.Add(1)
				s.finish(c, "cached", InferOutcome{Entry: e, Cached: true, Device: e.Device})
			}
			return true
		}
		s.mu.Lock()
		if s.delivered == c.delivered {
			return false
		}
		c.delivered = s.delivered
		s.mu.Unlock()
	}
}

// join coalesces c with the tuning run already in flight for its
// signature — that run's leader will answer c's caller — or, when there
// is none, returns the heap copy of c that leads a new one. It is called
// holding s.mu (see cached) and releases it.
func (s *InferenceServer) join(c *call) (lead *call) {
	if l, ok := s.pending[c.Signature]; ok {
		l.waiters = append(l.waiters, c.out)
		s.mu.Unlock()
		s.m.coalesced.Add(1)
		c.out = nil
		s.finish(c, "coalesced", InferOutcome{})
		return nil
	}
	lead = new(call)
	*lead = *c
	lead.leads = true
	lead.admSp = lead.sp.Child("admission", lead.SubmitTime)
	s.pending[lead.Signature] = lead
	s.mu.Unlock()
	return lead
}

// admit takes a leader through the intake gate — degradation ladder,
// injected burst, routing, the bounded queue — and leaves it queued for
// a worker, or rejected with a typed error.
func (s *InferenceServer) admit(c *call) {
	// Once the ladder has stepped past normal, background traffic is
	// shed at the gate so critical work keeps the queue. Cache hits stay
	// free — degraded service still answers what it already knows.
	if c.Priority == PriorityBackground {
		if mode := s.degradeMode(); mode >= autoscale.ModeShedBackground {
			s.scale.cShed.Inc()
			s.reject(c, "shed-degraded", fmt.Errorf("core: background shed by degradation ladder (%s): %w", mode, ErrOverloaded))
			return
		}
	}
	// Injected overload burst: a synthetic traffic spike.
	if ferr := s.failAt(fault.OverloadBurst, "admit/", c.Client, c.seq); ferr != nil {
		s.reject(c, "shed-burst", fmt.Errorf("%w: %w", ErrOverloaded, ferr))
		return
	}
	// Route before queuing so workers never see an unrouted call, and
	// fail fast when the pool has nothing healthy to offer: the caller
	// falls back to degraded data instead of queueing doomed work.
	var err error
	if c.rt, err = s.pool.pick(c.SubmitTime); err != nil {
		s.reject(c, "no-healthy-device", err)
		return
	}
	// Caller cancellation while the call is queued needs no worker and
	// no goroutine of its own. Hooked up before the push, so that finish
	// — on whichever goroutine — finds stop already set.
	if c.ctx.Done() != nil {
		c.stop = context.AfterFunc(c.ctx, func() { s.unqueue(c) })
	}
	evicted, err := s.adm.push(c)
	if err != nil {
		s.reject(c, outcomeLabel(err), err)
		return
	}
	s.m.queue.Set(float64(s.adm.inSystem()))
	s.m.queueEnqueue.Observe(float64(c.depthAtEnqueue))
	s.m.admitWait.Observe(float64(c.queuedAhead))
	s.admissionSpan(c, "admitted", c.rt.pd.name, c.queuedAhead)
	if evicted != nil {
		s.opts.Recorder.AddPreempted()
		s.opts.Flight.Record(c.SubmitTime, flight.KindAdmission, "preempted", evicted.Signature, 0, 0)
		s.finish(evicted, "", InferOutcome{Err: fmt.Errorf("core: preempted by critical request: %w", ErrOverloaded)})
	}
	if c.ctx.Err() != nil {
		s.unqueue(c) // cancelled before the push: the hook found nothing queued
	}
}

// reject ends a call the gate turned away: the counter its kind of
// rejection has, the verdict on its admission span, the typed error to
// its caller.
func (s *InferenceServer) reject(c *call, verdict string, err error) {
	switch {
	case errors.Is(err, ErrRateLimited):
		s.opts.Recorder.AddRateLimited()
		// Per-tenant rejection counter: the label rides in the name,
		// the registry convention for data-keyed series.
		if s.reg != nil {
			s.reg.Counter("serving.rate-limited.tenant." + c.Client).Inc()
		}
	case errors.Is(err, ErrOverloaded):
		s.opts.Recorder.AddShed()
	}
	s.admissionSpan(c, verdict, "", -1)
	s.finish(c, "", InferOutcome{Err: err})
}

// unqueue ends a call whose caller gave up while it was still queued;
// when a worker has it already, the worker notices.
func (s *InferenceServer) unqueue(c *call) {
	if s.adm.remove(c) {
		s.finish(c, "", InferOutcome{Err: c.ctx.Err()})
	}
}

// failAt consults the injector at the per-submission site
// "<prefix><name>#<seq>". The string exists only to name the decision
// point, so it is built only when there is an injector to read it — on
// nil alone: an injector with every probability zero must still see
// each site (the chaos fuzzer's discovery pass enumerates them).
func (s *InferenceServer) failAt(class fault.Class, prefix, name string, seq int) error {
	if s.opts.Fault == nil {
		return nil
	}
	return s.opts.Fault.Fail(class, fmt.Sprintf("%s%s#%d", prefix, name, seq), 0)
}

// finish ends a call, whatever happened to it, and is the only place a
// request span ends, an SLO event is recorded and a reply is sent. Every
// queued call reaches it exactly once, from whoever took it out of the
// queue. label names the ending on the span where the error alone does
// not ("cached", "dropped-reply", "coalesced"). Two kinds of call are
// not SLO events: one refused before it was opened, and one that joined
// a leader (out is nil) — the leader's finish counts the run once and
// answers the waiters, who share the result as a cache hit without being
// charged the tuning cost again.
func (s *InferenceServer) finish(c *call, label string, res InferOutcome) {
	var waiters []chan InferOutcome
	if c.leads {
		s.mu.Lock()
		delete(s.pending, c.Signature)
		s.delivered++
		waiters = c.waiters
		s.mu.Unlock()
	}
	end := c.SubmitTime + res.Latency
	if c.sp != nil {
		if label == "" {
			label = outcomeLabel(res.Err)
		}
		attrs := []obs.Attr{obs.Str("outcome", label)}
		if res.Device != "" {
			attrs = append(attrs, obs.Str("device", res.Device))
		}
		if res.Hedged {
			attrs = append(attrs, obs.Bool("hedged", true))
		}
		c.sp.Set(attrs...)
		c.sp.End(end)
	}
	if c.out == nil {
		return
	}
	if c.opened {
		s.recordSLO(end, res)
	}
	if c.stop != nil {
		c.stop()
	}
	if !c.served {
		s.pool.release(c.rt) // routed but never run: give the probe slot back
	}
	c.out <- res
	res.Cached, res.TuningCost = true, perfmodel.Cost{}
	for _, w := range waiters {
		w <- res
	}
}

// recordSLO counts one request outcome against the server's objectives
// at simulated time at: the rejection objective sees every outcome, the
// latency objective only requests that actually produced a result.
func (s *InferenceServer) recordSLO(at time.Duration, res InferOutcome) {
	s.sloRejects.Record(at, !errors.Is(res.Err, ErrOverloaded))
	s.sloTenantRejects.Record(at, !errors.Is(res.Err, ErrRateLimited))
	if res.Err == nil {
		s.sloLatency.Record(at, res.Latency <= sloServeLatency)
	}
}

// worker drains the admission queue, serving one call at a time.
func (s *InferenceServer) worker() {
	defer s.wg.Done()
	for {
		c, ok := s.adm.take()
		if !ok {
			return
		}
		s.m.queue.Set(float64(s.adm.inSystem()))
		// A call cancelled between queue and worker (unqueue lost the
		// race to remove it) is not served.
		res := InferOutcome{Err: c.ctx.Err()}
		if res.Err == nil {
			res = s.run(c)
			if s.adm.isRejecting() {
				s.opts.Recorder.AddDrained()
			}
		}
		// Retire the in-system slot before finishing the call: a caller
		// that awaits each request then observes a fully-drained queue
		// at its next submission, keeping the autoscaler's in-system
		// signal deterministic for sequential drivers.
		s.adm.done()
		s.finish(c, "", res)
		s.m.queue.Set(float64(s.adm.inSystem()))
	}
}

// run serves c for as long as it may live — until its caller gives up,
// the server is hard-stopped or requestTimeout passes — under the pprof
// labels of its tenant and priority.
func (s *InferenceServer) run(c *call) (out InferOutcome) {
	c.served = true
	ctx, cancel := context.WithTimeout(c.ctx, requestTimeout)
	defer cancel()
	defer context.AfterFunc(s.hard, cancel)() // hooked to the hard stop; unhooked on return

	var labels []string
	if s.opts.Profile {
		// Labels do not cross the Submit→worker goroutine hop; re-apply
		// the serving taxonomy from the call itself. The store write
		// inside serve happens on this goroutine, so it inherits them.
		labels = append([]string{
			prof.KeyTenant, tenantLabel(c.Client),
			prof.KeyPriority, priorityLabel(c.Priority),
		}, s.opts.ProfLabels...)
	}
	prof.Do(ctx, func(ctx context.Context) { out = s.serve(ctx, c) }, labels...)
	return out
}

// serve is §3.4 for a call no table entry answered: search on the routed
// device (hedging to the next-best one when it straggles), persist the
// winner through the write-behind buffer, reply — each step subject to
// injected faults, with every attempt's simulated cost charged to the
// request.
func (s *InferenceServer) serve(ctx context.Context, c *call) InferOutcome {
	var sp *obs.Span
	if c.sp != nil {
		sp = c.sp.Child("serve", c.SubmitTime, obs.Str("device", c.rt.pd.name))
	}
	h := s.runHedged(ctx, c.InferRequest, c.rt, sp, c.SubmitTime)
	s.m.latencyMS.Observe(float64(h.latency) / float64(time.Millisecond))
	if sp != nil {
		sp.Set(obs.Str("winner", h.winner.name), obs.Bool("hedged", h.hedged))
	}
	end := c.SubmitTime + h.latency
	out := InferOutcome{TuningCost: h.cost, Device: h.winner.name, Latency: h.latency, Hedged: h.hedged, Err: h.res.err}
	if out.Err == nil {
		out.Err = s.persist(c.Signature, h.res.entry)
		if sp != nil {
			wsp := sp.Child("store-write", end, obs.Bool("ok", out.Err == nil))
			wsp.End(end)
		}
	}
	sp.End(end)
	// The work is done and stored; the reply itself can still be lost in
	// flight. A retrying caller then recovers cheaply via the store fast
	// path.
	if out.Err == nil {
		out.Err = s.opts.Fault.Fail(fault.DroppedReply, c.Signature, 0)
	}
	if out.Err == nil {
		out.Entry = h.res.entry
	}
	return out
}

// persist stores the winning entry through the write-behind buffer,
// subject to injected store-write failures. Only the write is retried,
// up to MaxAttempts — the tuned result is already in hand.
func (s *InferenceServer) persist(sig string, entry store.Entry) (err error) {
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.opts.Recorder.AddRetry()
		}
		if err = s.opts.Fault.Fail(fault.StoreWrite, sig, attempt); err == nil {
			err = s.writes.Put(entry)
		}
		if err == nil || !fault.IsFault(err) {
			break
		}
	}
	return err
}

// serveOn runs the tuning attempts for one request on one device,
// charging every attempt's cost. Each attempt becomes a "device-attempt"
// child of sp (nil = tracing off), stamped with the device's health and
// breaker state at dispatch and placed at start plus the cost charged so
// far on the simulated clock.
func (s *InferenceServer) serveOn(ctx context.Context, req InferRequest, pd *poolDevice, sp *obs.Span, start time.Duration) serveResult {
	var res serveResult
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.opts.Recorder.AddRetry()
		}
		var asp *obs.Span
		if sp != nil {
			hState, score := s.pool.stateOf(pd.name)
			asp = sp.Child("device-attempt", start+res.cost.Duration,
				obs.Str("device", pd.name),
				obs.Int("attempt", int64(attempt)),
				obs.Str("health", hState.String()),
				obs.Float("score", score),
				obs.Str("breaker", pd.br.snapshotState().String()))
		}
		entry, cost, raw, err := s.tuneOn(ctx, req, pd, attempt)
		res.cost = res.cost.Add(cost)
		if raw > 0 {
			res.baseline = raw
		}
		if asp != nil {
			asp.Set(obs.Str("outcome", outcomeLabel(err)), obs.Float("energyJ", cost.EnergyJ))
			asp.End(start + res.cost.Duration)
		}
		if res.err = err; err == nil {
			res.entry = entry
			break
		}
		if !fault.IsFault(err) {
			break // organic error or cancellation: not retryable here
		}
	}
	return res
}

// tuneOn wraps one tuning attempt on one device with its fault model:
// a device flap fails the attempt outright, a brown-out inflates the
// attempt's simulated cost (the device is thermally throttled, not
// dead) while leaving the tuned entry's steady-state metrics intact.
// The third return is the raw pre-brownout duration — the fault-free
// perfmodel expectation the hedge deadline derives from.
func (s *InferenceServer) tuneOn(ctx context.Context, req InferRequest, pd *poolDevice, attempt int) (store.Entry, perfmodel.Cost, time.Duration, error) {
	var site string
	if s.opts.Fault != nil { // a nil injector reads no site: build none
		site = pd.name + "/" + req.Signature
	}
	if ferr := s.opts.Fault.Fail(fault.DeviceFlap, site, attempt); ferr != nil {
		return store.Entry{}, perfmodel.Cost{}, 0, ferr
	}
	factor := 1.0
	if s.opts.Fault.Should(fault.DeviceBrownout, site, attempt) {
		factor = s.opts.Fault.BrownoutFactor(site, attempt)
	}
	entry, cost, err := s.tuneCore(ctx, req, pd)
	raw := cost.Duration
	if factor > 1 {
		cost = scaleCost(cost, factor)
	}
	return entry, cost, raw, err
}

// tuneCore runs the inference parameter search for one architecture:
// the §3.4 process of exploring batch size and system parameters on the
// emulated device with the configured algorithm and objective. The
// sampler seed depends only on the signature, so a retried attempt
// reproduces the same search — attempts differ only in which faults
// fire. It is fault-free by construction, which also makes it the
// hedge deadline's baseline (see baseline).
func (s *InferenceServer) tuneCore(ctx context.Context, req InferRequest, pd *poolDevice) (store.Entry, perfmodel.Cost, error) {
	var cost perfmodel.Cost
	sampler, err := search.NewSampler(s.opts.Algo, s.opts.Space, s.opts.Seed^sim.Hash64(req.Signature))
	if err != nil {
		return store.Entry{}, cost, err
	}
	obj := Objective{Metric: s.opts.Metric}

	// Two maps per search: the proposal scratch, and the incumbent's
	// configuration, which the returned entry keeps.
	var (
		best      store.Entry
		bestScore = -1.0
		cfg       = make(search.Config, s.opts.Space.Dim())
		bestCfg   = make(search.Config, s.opts.Space.Dim())
	)
	for i := 0; i < s.opts.Trials; i++ {
		// Honour cancellation and the per-request deadline between
		// trials, not only at request boundaries.
		if err := ctx.Err(); err != nil {
			return store.Entry{}, cost, err
		}
		sampler.SampleInto(cfg)
		spec := perfmodel.InferSpec{
			FLOPsPerSample: req.FLOPsPerSample,
			Params:         req.Params,
			BatchSize:      int(cfg[workload.ParamInferBatch]),
			Cores:          int(cfg[workload.ParamCores]),
			FreqGHz:        cfg[workload.ParamFreq],
		}
		r, err := pd.dev.Estimate(spec)
		if err != nil {
			return store.Entry{}, cost, fmt.Errorf("core: inference trial: %w", err)
		}
		score := obj.InferScore(r)
		sampler.Observe(search.Observation{Config: cfg, Score: score, Budget: 1})

		// Charge the emulated trial: one batch evaluation.
		cost = cost.Add(perfmodel.Cost{
			Duration: r.BatchLatency,
			EnergyJ:  r.PowerW * r.BatchLatency.Seconds(),
		})

		if bestScore < 0 || score < bestScore {
			bestScore = score
			maps.Copy(bestCfg, cfg)
			best = inferEntry(req.Signature, pd.name, bestCfg, r)
			best.Objective = score
		}
	}
	best.TrialsRun = s.opts.Trials
	return best, cost, nil
}

// inferEntry is the historical-store record of one evaluated inference
// configuration: what ran (cfg, kept rather than copied) and what the
// device model said of it.
func inferEntry(sig, dev string, cfg search.Config, r perfmodel.InferResult) store.Entry {
	return store.Entry{
		Signature:        sig,
		Device:           dev,
		Config:           cfg,
		Throughput:       r.Throughput,
		EnergyPerSampleJ: r.EnergyPerSampleJ,
		LatencySeconds:   r.BatchLatency.Seconds(),
	}
}

// DefaultEntry evaluates an architecture at dev's untuned default
// system configuration: the fallback of a degraded recommendation, and
// what an inference-unaware baseline deploys.
func DefaultEntry(sig string, dev device.Device, flops, params float64) (store.Entry, error) {
	spec := dev.DefaultSpec(flops, params)
	r, err := dev.Estimate(spec)
	if err != nil {
		return store.Entry{}, err
	}
	return inferEntry(sig, dev.Profile.Name, search.Config{
		workload.ParamInferBatch: float64(spec.BatchSize),
		workload.ParamCores:      float64(spec.Cores),
		workload.ParamFreq:       spec.FreqGHz,
	}, r), nil
}

// admissionSpan records the admission verdict for a request as a
// zero-duration child span of its request span (admission is
// instantaneous on the simulated clock). queuedAhead is the request's
// queue position at enqueue; negative means it never reached the queue.
func (s *InferenceServer) admissionSpan(c *call, verdict, dev string, queuedAhead int) {
	// Rejections feed the flight recorder even with tracing off: the
	// ring is the always-on record, the trace the opt-in one.
	if verdict != "admitted" {
		s.opts.Flight.Record(c.SubmitTime, flight.KindAdmission, verdict, c.Signature, int64(queuedAhead), 0)
	}
	if c.admSp == nil {
		return
	}
	attrs := []obs.Attr{obs.Str("verdict", verdict)}
	if dev != "" {
		attrs = append(attrs, obs.Str("device", dev))
	}
	if queuedAhead >= 0 {
		attrs = append(attrs, obs.Int("queuedAhead", int64(queuedAhead)))
	}
	c.admSp.Set(attrs...)
	c.admSp.End(c.SubmitTime)
}

// outcomeLabel classifies a serving error for span attributes. The
// checks are ordered because the typed errors wrap one another
// (rate-limited and preemption wrap overloaded, no-healthy-device wraps
// circuit-open).
func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrRateLimited):
		return "rate-limited"
	case errors.Is(err, ErrServerClosed):
		return "server-closed"
	case errors.Is(err, ErrOverloaded):
		return "shed"
	case errors.Is(err, ErrNoHealthyDevice):
		return "no-healthy-device"
	case errors.Is(err, ErrCircuitOpen):
		return "circuit-open"
	case fault.IsFault(err):
		return "fault:" + string(fault.ClassOf(err))
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "error"
	}
}

// transientInferError reports whether an inference outcome error is
// worth a cheap resubmit or a degraded fallback (injected faults,
// breaker rejections, shed or rate-limited submissions, a closed
// server, missed deadlines) rather than a hard abort.
func transientInferError(err error) bool {
	return fault.IsFault(err) ||
		errors.Is(err, ErrCircuitOpen) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrServerClosed) ||
		errors.Is(err, context.DeadlineExceeded)
}

// awaitOutcome blocks for an outcome with a deadline, used by the model
// server to enforce the containment claim (§3.3: the inference result
// must arrive before the training trial ends). The timer is stopped and
// drained on every exit path so heavy retry traffic does not accumulate
// pending timer channels.
func awaitOutcome(ctx context.Context, ch <-chan InferOutcome, limit time.Duration) (InferOutcome, error) {
	timer := time.NewTimer(limit)
	defer func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}()
	select {
	case res := <-ch:
		if res.Err != nil {
			return res, res.Err
		}
		return res, nil
	case <-timer.C:
		return InferOutcome{}, fmt.Errorf("core: inference result missed the %v deadline: %w", limit, context.DeadlineExceeded)
	case <-ctx.Done():
		return InferOutcome{}, ctx.Err()
	}
}
