package dist

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/obs"
)

// This file implements the fault-injection and recovery layer of the
// simulated cluster (DESIGN.md §11). The real Spark stack the paper runs on
// survives executor loss through RDD lineage (Zaharia et al., NSDI 2012)
// and hides stragglers through speculative execution (Dean & Barroso, "The
// Tail at Scale"); this layer reproduces both behaviours over the panel
// scheduler so chaos tests can assert that distributed results stay
// bit-compatible with local execution under injected failures:
//
//   - A FaultPlan deterministically injects transient task failures,
//     one permanent executor kill, and straggler slowdowns, all derived
//     from a seed (reproducible chaos — same plan, same faults).
//   - Failed task attempts retry with capped exponential backoff under a
//     per-task cap and a per-operator retry budget.
//   - A killed executor's not-yet-executed panels (queued, or sleeping in
//     backoff/straggler delays) are reassigned to survivors — the panel
//     lineage (operator + row range) is enough to recompute them anywhere.
//     Completed panels are durable: kernels write zero-copy into the
//     driver-side output buffer, so death after a kernel finishes loses
//     nothing. Broadcast blocks lost with the executor are re-shipped,
//     charged against the traffic counters.
//   - A panel running slower than specMultiple × the median completed
//     task time gets a speculative duplicate on an idle executor;
//     whichever attempt finishes first wins and cancels the loser through
//     its task context.
//   - When the retry budget is exhausted or live executors drop below
//     MinSurvivors, the operator degrades gracefully: runPanels reports
//     failure, ExecHop answers ok=false, and the runtime transparently
//     recomputes the operator on the local backend (counted in
//     dist.degraded) instead of erroring the run.

// FaultPlan configures deterministic, seedable fault injection for a
// Cluster. The zero value injects nothing but still routes execution
// through the fault-tolerant scheduler (the <3% overhead bench gate runs
// exactly that configuration); a nil plan on the Cluster bypasses the
// scheduler entirely. Every injection decision is a pure function of
// (Seed, operator sequence, panel, attempt), so a plan replays identically
// across runs regardless of goroutine scheduling.
type FaultPlan struct {
	// Seed drives every injection decision. Two runs of the same plan over
	// the same operator sequence inject identical faults.
	Seed int64

	// TransientRate is the per-attempt probability that a task fails
	// transiently (the attempt is discarded and retried after backoff).
	TransientRate float64

	// StragglerRate is the per-attempt probability that a task is slowed
	// by StragglerDelay before executing (the straggler-mitigation path:
	// slow attempts become speculation candidates).
	StragglerRate float64

	// StragglerDelay is the injected slowdown per straggling attempt;
	// 0 defaults to 2ms when StragglerRate > 0.
	StragglerDelay time.Duration

	// KillExecutor is the executor id to kill permanently. The kill is
	// armed only when KillExecutor >= 0 AND KillAtTask > 0 (the zero-value
	// plan never kills). Ids at or beyond the executor count clamp to the
	// last executor.
	KillExecutor int

	// KillAtTask is the 1-based global task-attempt index whose start
	// triggers the kill; 0 disables it. The counter spans the cluster
	// lifetime, so the kill fires once, at a reproducible point.
	KillAtTask int64

	// MaxTaskRetries caps transient retries of one task before the
	// operator degrades; 0 defaults to 4.
	MaxTaskRetries int

	// RetryBudget caps total transient retries per operator before it
	// degrades; 0 defaults to 64.
	RetryBudget int

	// MinSurvivors is the live-executor floor: an operator starting (or a
	// reassignment landing) below it degrades to local execution instead
	// of running on a cluster too small to be credible; 0 defaults to 1.
	MinSurvivors int

	// SpecMultiple is the straggler threshold: a task whose first attempt
	// has been running longer than SpecMultiple × the median completed
	// task duration gets a speculative duplicate; 0 defaults to 3.
	SpecMultiple float64

	// BackoffBase and BackoffCap bound the capped exponential backoff
	// between transient retries (base·2^attempt, clamped to cap). Zero
	// values default to 100µs and 5ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

// Defaulted knob accessors: the zero value of every tuning field maps to a
// documented default so FaultPlan literals stay terse in tests and flags.

func (p *FaultPlan) maxTaskRetries() int {
	if p.MaxTaskRetries <= 0 {
		return 4
	}
	return p.MaxTaskRetries
}

func (p *FaultPlan) retryBudget() int {
	if p.RetryBudget <= 0 {
		return 64
	}
	return p.RetryBudget
}

func (p *FaultPlan) minSurvivors() int {
	if p.MinSurvivors <= 0 {
		return 1
	}
	return p.MinSurvivors
}

func (p *FaultPlan) specMultiple() float64 {
	if p.SpecMultiple <= 0 {
		return 3
	}
	return p.SpecMultiple
}

func (p *FaultPlan) stragglerDelay() time.Duration {
	if p.StragglerDelay <= 0 {
		return 2 * time.Millisecond
	}
	return p.StragglerDelay
}

func (p *FaultPlan) backoff(attempt int) time.Duration {
	base := p.BackoffBase
	if base <= 0 {
		base = 100 * time.Microsecond
	}
	cap := p.BackoffCap
	if cap <= 0 {
		cap = 5 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// killArmed reports whether the plan schedules a permanent executor kill.
func (p *FaultPlan) killArmed() bool {
	return p != nil && p.KillExecutor >= 0 && p.KillAtTask > 0
}

// Injection decision domains: mixed into the hash so the transient and
// straggler decisions of the same attempt are independent draws.
const (
	faultDomainTransient = 0x7261
	faultDomainStraggler = 0x7374
)

// chance maps (seed, domain, op, panel, attempt) to a uniform [0,1) draw
// via a splitmix64-style finalizer. Purely functional: injection does not
// depend on which goroutine claims which panel first.
func (p *FaultPlan) chance(domain, op, panel, attempt int64) float64 {
	x := uint64(p.Seed)*0x9E3779B97F4A7C15 +
		uint64(domain)*0xBF58476D1CE4E5B9 +
		uint64(op)*0x94D049BB133111EB +
		uint64(panel)*0xD6E8FEB86659FD93 +
		uint64(attempt)*0xA3EC647659359ACD
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func (p *FaultPlan) failTransient(op, panel, attempt int64) bool {
	return p.TransientRate > 0 && p.chance(faultDomainTransient, op, panel, attempt) < p.TransientRate
}

func (p *FaultPlan) straggle(op, panel, attempt int64) bool {
	return p.StragglerRate > 0 && p.chance(faultDomainStraggler, op, panel, attempt) < p.StragglerRate
}

// FaultStats is a snapshot of the cluster's fault-injection and recovery
// counters, all cumulative over the cluster lifetime.
type FaultStats struct {
	// TransientInjected counts injected transient task failures.
	TransientInjected int64
	// StragglersInjected counts attempts slowed by the straggler delay.
	StragglersInjected int64
	// Kills counts permanent executor kills (0 or 1 per cluster).
	Kills int64
	// Reassigned counts panels moved from a dead executor to survivors.
	Reassigned int64
	// Retries counts task re-executions after transient failures.
	Retries int64
	// BackoffNanos accumulates time spent in retry backoff sleeps.
	BackoffNanos int64
	// SpecLaunched counts speculative duplicate attempts started.
	SpecLaunched int64
	// SpecWins counts tasks completed by the speculative attempt first.
	SpecWins int64
	// BcastReships counts broadcast handles re-shipped after a kill.
	BcastReships int64
	// BcastReshipBytes is the broadcast volume charged by those reships.
	BcastReshipBytes int64
	// Degraded counts operators that fell back to local execution after
	// recovery was exhausted (the dist.degraded marker).
	Degraded int64
}

// FaultStats returns the cluster's fault and recovery counters.
func (c *Cluster) FaultStats() FaultStats {
	return FaultStats{
		TransientInjected:  atomic.LoadInt64(&c.ftTransient),
		StragglersInjected: atomic.LoadInt64(&c.ftStragglers),
		Kills:              atomic.LoadInt64(&c.ftKills),
		Reassigned:         atomic.LoadInt64(&c.ftReassigned),
		Retries:            atomic.LoadInt64(&c.ftRetries),
		BackoffNanos:       atomic.LoadInt64(&c.ftBackoffNanos),
		SpecLaunched:       atomic.LoadInt64(&c.ftSpecLaunched),
		SpecWins:           atomic.LoadInt64(&c.ftSpecWins),
		BcastReships:       atomic.LoadInt64(&c.bcastReships),
		BcastReshipBytes:   atomic.LoadInt64(&c.bcastReshipBytes),
		Degraded:           atomic.LoadInt64(&c.ftDegraded),
	}
}

// FaultCounters returns the fault and recovery counters keyed by metric
// suffix ("fault.transient" → Session.Metrics "dist.fault.transient"); the
// interpreter merges them into metric snapshots through a small interface,
// keeping internal/dml decoupled from this package.
func (c *Cluster) FaultCounters() map[string]int64 {
	s := c.FaultStats()
	return map[string]int64{
		"fault.transient":    s.TransientInjected,
		"fault.stragglers":   s.StragglersInjected,
		"fault.kills":        s.Kills,
		"fault.reassigned":   s.Reassigned,
		"retry.attempts":     s.Retries,
		"retry.backoff.ns":   s.BackoffNanos,
		"spec.launched":      s.SpecLaunched,
		"spec.wins":          s.SpecWins,
		"bcast.reships":      s.BcastReships,
		"bcast.reship.bytes": s.BcastReshipBytes,
		"degraded":           s.Degraded,
	}
}

// FaultActive reports whether a fault plan is attached (execution routes
// through the fault-tolerant scheduler).
func (c *Cluster) FaultActive() bool { return c.fault != nil }

// DeadExecutors returns the ids of permanently killed executors.
func (c *Cluster) DeadExecutors() []int {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	out := make([]int, 0, len(c.deadExec))
	for e := range c.deadExec {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

// execDead reports whether executor e has been killed. The atomic
// dead-count fast path keeps the no-faults case branch-cheap.
func (c *Cluster) execDead(e int) bool {
	if atomic.LoadInt64(&c.deadCount) == 0 {
		return false
	}
	c.execMu.Lock()
	dead := c.deadExec[e]
	c.execMu.Unlock()
	return dead
}

// liveExecutorIDs returns the ids of executors still alive, in order.
func (c *Cluster) liveExecutorIDs() []int {
	n := c.NumExecutors
	if n < 1 {
		n = 1
	}
	out := make([]int, 0, n)
	if atomic.LoadInt64(&c.deadCount) == 0 {
		for e := 0; e < n; e++ {
			out = append(out, e)
		}
		return out
	}
	c.execMu.Lock()
	for e := 0; e < n; e++ {
		if !c.deadExec[e] {
			out = append(out, e)
		}
	}
	c.execMu.Unlock()
	return out
}

// maybeKill fires the plan's scheduled executor kill when the global
// task-attempt counter crosses KillAtTask. Exactly one caller wins the
// CAS; it marks the executor dead and re-ships the broadcast blocks that
// died with it.
func (c *Cluster) maybeKill(p *FaultPlan, attemptIndex int64) {
	if !p.killArmed() || attemptIndex < p.KillAtTask {
		return
	}
	if !atomic.CompareAndSwapInt32(&c.killFired, 0, 1) {
		return
	}
	e := p.KillExecutor
	if n := c.NumExecutors; e >= n && n > 0 {
		e = n - 1
	}
	c.execMu.Lock()
	if c.deadExec == nil {
		c.deadExec = map[int]bool{}
	}
	c.deadExec[e] = true
	c.execMu.Unlock()
	atomic.AddInt64(&c.deadCount, 1)
	atomic.AddInt64(&c.ftKills, 1)
	c.reshipBroadcasts()
}

// reshipBroadcasts accounts the broadcast recovery after an executor kill:
// every cached handle had a block replica on the dead executor, and the
// survivors taking over its panels must re-fetch those blocks, so each
// handle is charged one executor-share of fresh broadcast traffic. The
// handles stay cached (survivor replicas remain valid).
func (c *Cluster) reshipBroadcasts() {
	c.bcastMu.Lock()
	var bytes int64
	var n int64
	for m := range c.bcastSeen {
		bytes += m.SizeBytes()
		n++
	}
	c.bcastMu.Unlock()
	if n == 0 {
		return
	}
	atomic.AddInt64(&c.bcastReships, n)
	atomic.AddInt64(&c.bcastReshipBytes, bytes)
	c.addBroadcast(bytes)
}

// Task lifecycle states. A task is claimed for execution by CASing
// pending→executing, so the panel kernel runs under exactly one attempt at
// a time even while a speculative duplicate races the original.
const (
	taskPending int32 = iota
	taskExecuting
	taskDone
)

// idlePoll is how often an out-of-work executor rescans for speculation
// candidates. Short enough that speculation reacts within a straggler
// delay, long enough to stay invisible next to real panel kernels. The end
// of the run does not wait for a poll: faultRun.stop wakes idle executors.
const idlePoll = 50 * time.Microsecond

// panelTask is one row-panel map task tracked by the fault scheduler: its
// lineage (panel index + row range, enough to recompute it anywhere), its
// lifecycle state, and the cancellation context that lets the winner of a
// speculative race cancel the loser.
type panelTask struct {
	panel, lo, hi int
	state         atomic.Int32
	attempts      atomic.Int32
	fails         atomic.Int32 // transient failures drawn so far
	startedNanos  atomic.Int64 // first attempt start, for straggler detection
	spec          atomic.Bool  // speculative duplicate launched
	ctx           context.Context
	cancel        context.CancelFunc
}

// faultRun schedules one operator's panels across simulated executors with
// retry, reassignment, and speculation. Tasks are queued per executor
// following the same static owner mapping the shuffle accounting uses;
// each live executor runs one scheduler goroutine that drains its own
// queue, then speculates on stragglers, until every task is done or the
// run degrades.
type faultRun struct {
	c     *Cluster
	plan  *FaultPlan
	opSeq int64
	sp    obs.Span
	fn    func(panel, lo, hi int)
	start time.Time

	mu       sync.Mutex
	queues   map[int][]*panelTask
	live     []int // executor ids participating in this run
	tasks    []*panelTask
	done     int
	durs     []time.Duration // completed first-result durations (median)
	retries  int             // operator-level retry budget consumed
	degraded atomic.Bool
	stop     chan struct{} // closed when the last task completes or the run degrades
	stopOnce sync.Once
}

// runPanelsFaulty executes fn once per panel under the fault-tolerant
// scheduler. It returns false when the operator degraded (retry budget or
// survivor floor exhausted); the caller then discards partial output and
// reports ok=false so the runtime recomputes locally.
func (c *Cluster) runPanelsFaulty(sp obs.Span, ps [][2]int, fn func(panel, lo, hi int)) bool {
	plan := c.fault
	live := c.liveExecutorIDs()
	if len(live) < plan.minSurvivors() {
		return false
	}
	if len(live) > len(ps) {
		live = live[:len(ps)]
	}
	r := &faultRun{
		c:      c,
		plan:   plan,
		opSeq:  atomic.AddInt64(&c.faultOpSeq, 1),
		sp:     sp,
		fn:     fn,
		start:  time.Now(),
		queues: make(map[int][]*panelTask, len(live)),
		live:   live,
		tasks:  make([]*panelTask, len(ps)),
		stop:   make(chan struct{}),
	}
	for p, span := range ps {
		ctx, cancel := context.WithCancel(context.Background())
		t := &panelTask{panel: p, lo: span[0], hi: span[1], ctx: ctx, cancel: cancel}
		r.tasks[p] = t
		e := live[owner(p, len(ps), len(live))]
		r.queues[e] = append(r.queues[e], t)
	}
	defer func() {
		for _, t := range r.tasks {
			t.cancel()
		}
	}()
	// The caller is the first executor's scheduler: it would only block in
	// the join otherwise, and waking it is latency a short operator sees.
	var wg sync.WaitGroup
	for _, e := range live[1:] {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			r.executorLoop(e)
		}(e)
	}
	r.executorLoop(live[0])
	wg.Wait()
	return !r.degraded.Load()
}

// executorLoop is the scheduler body of one simulated executor: drain own
// queue, then speculate on stragglers, until completion, degradation, or
// death (a dead executor evacuates its queue to survivors and stops).
func (r *faultRun) executorLoop(e int) {
	for {
		if r.degraded.Load() {
			return
		}
		if r.c.execDead(e) {
			r.evacuate(e)
			return
		}
		if t := r.next(e); t != nil {
			r.attempt(e, t, false)
			continue
		}
		if r.finished() {
			return
		}
		if t := r.specCandidate(); t != nil {
			r.attempt(e, t, true)
			continue
		}
		sleepUnless(idlePoll, r.stop)
	}
}

func (r *faultRun) next(e int) *panelTask {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.queues[e]
	if len(q) == 0 {
		return nil
	}
	t := q[0]
	r.queues[e] = q[1:]
	return t
}

func (r *faultRun) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done == len(r.tasks)
}

// complete records a finished task and its duration (attempt start to
// completion, injected delays included — exactly what a straggler inflates
// and speculation must beat).
func (r *faultRun) complete(t *panelTask) {
	d := time.Since(r.start) - time.Duration(t.startedNanos.Load())
	r.mu.Lock()
	r.done++
	r.durs = append(r.durs, d)
	last := r.done == len(r.tasks)
	r.mu.Unlock()
	if last {
		r.halt()
	}
}

// evacuate reassigns a dead executor's queued panels to survivors —
// lineage-based recovery: a panel is recomputed from its row range on any
// executor, so the queue simply moves.
func (r *faultRun) evacuate(e int) {
	r.mu.Lock()
	orphans := r.queues[e]
	r.queues[e] = nil
	r.mu.Unlock()
	for _, t := range orphans {
		r.reassign(t)
	}
}

// reassign moves one panel to a surviving executor's queue (round-robin by
// panel index). With no survivors left above the floor the run degrades.
func (r *faultRun) reassign(t *panelTask) {
	var survivors []int
	for _, s := range r.live {
		if !r.c.execDead(s) {
			survivors = append(survivors, s)
		}
	}
	if len(survivors) < r.plan.minSurvivors() {
		r.degrade()
		return
	}
	s := survivors[t.panel%len(survivors)]
	atomic.AddInt64(&r.c.ftReassigned, 1)
	if r.sp.Active() {
		r.sp.Child("dist.reassign",
			obs.KV("panel", t.panel),
			obs.KV("to.executor", s)).End()
	}
	r.mu.Lock()
	r.queues[s] = append(r.queues[s], t)
	r.mu.Unlock()
}

func (r *faultRun) degrade() {
	r.degraded.Store(true)
	r.halt()
}

// halt wakes the executors that are idling between speculation scans.
func (r *faultRun) halt() { r.stopOnce.Do(func() { close(r.stop) }) }

// specCandidate finds a task whose first attempt has run longer than
// specMultiple × the median completed-task duration and claims the right
// to launch its (single) speculative duplicate.
func (r *faultRun) specCandidate() *panelTask {
	r.mu.Lock()
	if len(r.durs) < 3 {
		r.mu.Unlock()
		return nil
	}
	med := append([]time.Duration(nil), r.durs...)
	r.mu.Unlock()
	sort.Slice(med, func(i, j int) bool { return med[i] < med[j] })
	threshold := time.Duration(float64(med[len(med)/2]) * r.plan.specMultiple())
	if threshold < time.Millisecond {
		threshold = time.Millisecond // floor: don't speculate on noise
	}
	elapsed := time.Since(r.start)
	for _, t := range r.tasks {
		started := t.startedNanos.Load()
		if t.state.Load() == taskDone || started == 0 {
			continue
		}
		if elapsed-time.Duration(started) <= threshold {
			continue
		}
		if !t.spec.CompareAndSwap(false, true) {
			continue
		}
		atomic.AddInt64(&r.c.ftSpecLaunched, 1)
		if r.sp.Active() {
			r.sp.Child("dist.speculate",
				obs.KV("panel", t.panel),
				obs.KV("threshold.ns", int64(threshold))).End()
		}
		return t
	}
	return nil
}

// attempt runs one (possibly retried, possibly speculative) execution of a
// task on executor e. The injected fault sequence per attempt is: executor
// death (reassign), transient failure (backoff + retry in place),
// straggler delay (cancellable sleep), then the kernel, guarded by the
// pending→executing CAS so the kernel runs at most once per task even
// while a speculative duplicate races the original. Running at most once
// matters beyond mutual exclusion: panel kernels accumulate into the
// zero-initialized output window (C += A·B), so a second execution would
// double the panel. That is also why executor death is checked only
// BEFORE the CAS: outputs are written zero-copy into the driver-side
// buffer, so once the kernel has run the result is durable — a kill can
// only orphan tasks that have not executed yet.
func (r *faultRun) attempt(e int, t *panelTask, isSpec bool) {
	for {
		if r.degraded.Load() || t.state.Load() == taskDone {
			return
		}
		a := int64(t.attempts.Add(1) - 1)
		n := atomic.AddInt64(&r.c.faultTaskStarts, 1)
		r.c.maybeKill(r.plan, n)
		if r.c.execDead(e) {
			// This executor died holding the task: hand it to a survivor.
			// The executor loop will notice death and evacuate the rest.
			r.reassign(t)
			return
		}
		t.startedNanos.CompareAndSwap(0, int64(time.Since(r.start)))
		// Transient failures are drawn by how often the task has failed so
		// far, not by the attempt number: reassignments and speculative
		// duplicates also number attempts, and when those happen is a
		// matter of scheduling. A duplicate that draws the failure its
		// sibling already recorded just tries again.
		if f := t.fails.Load(); r.plan.failTransient(r.opSeq, int64(t.panel), int64(f)) {
			if !t.fails.CompareAndSwap(f, f+1) {
				continue
			}
			atomic.AddInt64(&r.c.ftTransient, 1)
			if int(f) >= r.plan.maxTaskRetries() || !r.budgetRetry() {
				r.degrade()
				return
			}
			atomic.AddInt64(&r.c.ftRetries, 1)
			d := r.plan.backoff(int(a))
			atomic.AddInt64(&r.c.ftBackoffNanos, int64(d))
			if r.sp.Active() {
				r.sp.Child("dist.retry",
					obs.KV("panel", t.panel),
					obs.KV("attempt", a+1),
					obs.KV("executor", e),
					obs.KV("backoff.ns", int64(d))).End()
			}
			if !sleepUnless(d, t.ctx.Done()) {
				return // task finished elsewhere while we backed off
			}
			continue
		}
		if r.plan.straggle(r.opSeq, int64(t.panel), a) {
			atomic.AddInt64(&r.c.ftStragglers, 1)
			if !sleepUnless(r.plan.stragglerDelay(), t.ctx.Done()) {
				return // speculative sibling won; we are the cancelled loser
			}
			if r.c.execDead(e) {
				// Killed while straggling: the kernel never ran here, so the
				// task is genuinely lost with this executor — reassign it.
				r.reassign(t)
				return
			}
		}
		if !t.state.CompareAndSwap(taskPending, taskExecuting) {
			return // sibling attempt is executing or already done
		}
		r.fn(t.panel, t.lo, t.hi)
		t.state.Store(taskDone)
		t.cancel()
		if isSpec {
			atomic.AddInt64(&r.c.ftSpecWins, 1)
		}
		r.complete(t)
		return
	}
}

// budgetRetry consumes one unit of the operator's retry budget; false
// means the budget is exhausted and the operator must degrade.
func (r *faultRun) budgetRetry() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retries++
	return r.retries <= r.plan.retryBudget()
}

// sleepUnless sleeps for d unless done closes first; it reports whether the
// full sleep elapsed.
func sleepUnless(d time.Duration, done <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-done:
		return false
	}
}
