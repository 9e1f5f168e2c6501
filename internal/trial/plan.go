package trial

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"edgetune/internal/obs/prof"
)

// plan is the trainings a runner's caller registered ahead of the Run
// that reads them. A training is pure (train.go), so evaluating it early
// and elsewhere changes nothing a Run returns; the plan only decides
// when and on which goroutine. The caller's own goroutine takes tasks
// from the front as its Runs ask for them, in the order it would have
// trained them anyway; helper goroutines take from the back, where the
// later — and, under successive halving, larger — budgets are. With no
// helper to be had the caller trains every task itself, at the point
// where Run always trained, and no goroutine exists.
type plan struct {
	mu      sync.Mutex
	tasks   []*task        // registered and not yet taken by a Run, in registration order
	running int            // this runner's helpers that have not decided to exit
	helpers sync.WaitGroup // the same goroutines, for Drain
}

// task is one registered training.
type task struct {
	req     Request  // Config, Alloc and Attempt; the rest is the Run's
	labels  []string // pprof labels of the rung that will read the result
	claimed bool     // somebody trains it or has trained it; under plan.mu

	// finished is set, and done — if a Run made one — closed, by the
	// helper that trained the task, under plan.mu, after out is set.
	// done is made, under plan.mu, only by a Run that finds a helper
	// still training the task it asks for: a task its own Run trains, or
	// one a helper finished first, never has one.
	finished bool
	done     chan struct{}

	cancelled atomic.Bool // nobody will read the result: stop
	out       training
}

// check is what a helper's training polls between mini-batches.
func (t *task) check() error {
	if t.cancelled.Load() {
		return context.Canceled
	}
	return nil
}

// is reports whether the task is the training req asks for.
func (t *task) is(req Request) bool {
	if t.req.Attempt != req.Attempt || t.req.Alloc != req.Alloc || len(t.req.Config) != len(req.Config) {
		return false
	}
	for k, v := range req.Config {
		if tv, ok := t.req.Config[k]; !ok || tv != v {
			return false
		}
	}
	return true
}

// Register announces trainings whose inputs are already decided: each
// request's Config, Alloc and Attempt (the plan keeps the Config map
// itself, so it must not be modified afterwards). The Run that later
// asks for one of them takes the registered result, and a request
// registered twice is two trainings, read by two Runs. labels are the
// pprof labels (alternating key, value) a helper wears while it trains
// these, since the rung that registered a training need not be the rung
// that reads it. Everything registered must be read by a Run or given up
// by Drain. A call allocates its tasks as one block, and no channel:
// only a Run that must wait for a helper makes one (see task.done).
func (r *Runner) Register(labels []string, reqs ...Request) {
	block := make([]task, len(reqs))
	r.plan.mu.Lock()
	defer r.plan.mu.Unlock()
	for i, req := range reqs {
		t := &block[i]
		t.req = Request{Config: req.Config, Alloc: req.Alloc, Attempt: req.Attempt}
		t.labels = labels
		r.plan.tasks = append(r.plan.tasks, t)
	}
}

// Drain gives up every registered training no Run has read — a helper
// in the middle of one stops at its next mini-batch — and returns once
// none of the runner's helpers is alive.
func (r *Runner) Drain() {
	if r == nil {
		return
	}
	r.plan.mu.Lock()
	for _, t := range r.plan.tasks {
		t.claimed = true
		t.cancelled.Store(true)
	}
	r.plan.tasks = nil
	r.plan.mu.Unlock()
	r.plan.helpers.Wait()
}

// training is the pure part of req's trial: the registered result where
// there is one — trained here and now if nobody has started it — and an
// unregistered request (a retry, a caller that registers nothing)
// trained here as ever.
func (r *Runner) training(ctx context.Context, req Request) training {
	t, mine := r.take(req)
	if t == nil || mine {
		return r.train(req.Config, req.Alloc, req.Attempt, ctx.Err)
	}
	done := r.awaitable(t)
	if done == nil {
		return t.out
	}
	select {
	case <-done:
		return t.out
	case <-ctx.Done():
		t.cancelled.Store(true)
		return training{err: ctx.Err()}
	}
}

// awaitable is nil when the helper training t has finished, and
// otherwise the channel it closes when it does, made here.
func (r *Runner) awaitable(t *task) <-chan struct{} {
	r.plan.mu.Lock()
	defer r.plan.mu.Unlock()
	if t.finished {
		return nil
	}
	t.done = make(chan struct{})
	return t.done
}

// take removes the first task that is req's training from the plan and
// reports whether the caller is to train it (nobody has started it). It
// then starts helpers for what is left: while this goroutine trains or
// waits, every other unclaimed task can be worked on.
func (r *Runner) take(req Request) (t *task, mine bool) {
	p := &r.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.tasks {
		if c.is(req) {
			t, mine = c, !c.claimed
			c.claimed = true
			p.tasks = append(p.tasks[:i], p.tasks[i+1:]...)
			break
		}
	}
	unclaimed := 0
	for _, c := range p.tasks {
		if !c.claimed {
			unclaimed++
		}
	}
	for p.running < unclaimed && acquireHelper() {
		p.running++
		p.helpers.Add(1)
		go r.help()
	}
	return t, mine
}

// discard gives up req's registered training, if there is one: the
// attempt died before training, so nobody will read it.
func (r *Runner) discard(req Request) {
	if t, _ := r.take(req); t != nil {
		t.cancelled.Store(true)
	}
}

// help is one helper goroutine: it trains unclaimed tasks, last
// registered first, until there are none, wearing each task's labels
// while it does (a goroutine starts with its creator's, those of the
// rung that was open then).
func (r *Runner) help() {
	defer r.plan.helpers.Done()
	defer releaseHelper()
	for {
		t := r.lastUnclaimed()
		if t == nil {
			return
		}
		prof.Do(context.Background(), func(context.Context) {
			t.out = r.train(t.req.Config, t.req.Alloc, t.req.Attempt, t.check)
		}, t.labels...)
		r.plan.mu.Lock()
		t.finished = true
		if t.done != nil {
			close(t.done)
		}
		r.plan.mu.Unlock()
	}
}

// lastUnclaimed claims the last registered task nobody has started, or
// reports that the calling helper is about to exit.
func (r *Runner) lastUnclaimed() *task {
	p := &r.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.tasks) - 1; i >= 0; i-- {
		if t := p.tasks[i]; !t.claimed {
			t.claimed = true
			return t
		}
	}
	p.running--
	return nil
}

// helperBudget is the one process-wide bound on helper goroutines:
// GOMAXPROCS − 1 across every runner, so that jobs side by side share
// the cores instead of each bringing its own trainers.
var helperBudget struct {
	mu   sync.Mutex
	busy int
}

func acquireHelper() bool {
	helperBudget.mu.Lock()
	defer helperBudget.mu.Unlock()
	if helperBudget.busy >= runtime.GOMAXPROCS(0)-1 {
		return false
	}
	helperBudget.busy++
	return true
}

func releaseHelper() {
	helperBudget.mu.Lock()
	defer helperBudget.mu.Unlock()
	helperBudget.busy--
}

// IdleHelpers is how many helper goroutines the process could start
// right now: GOMAXPROCS − 1 when no runner has one alive.
func IdleHelpers() int {
	helperBudget.mu.Lock()
	defer helperBudget.mu.Unlock()
	return runtime.GOMAXPROCS(0) - 1 - helperBudget.busy
}
