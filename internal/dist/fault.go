package dist

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/obs"
	"sysml/internal/par"
)

// This file implements the panel scheduler of the simulated cluster and its
// fault-injection and recovery layer (DESIGN.md §11). The real Spark stack
// the paper runs on survives executor loss through RDD lineage (Zaharia et
// al., NSDI 2012) and hides stragglers through speculative execution (Dean &
// Barroso, "The Tail at Scale"); this layer reproduces both behaviours so
// chaos tests can assert that distributed results stay bit-compatible with
// local execution under injected failures:
//
//   - A FaultPlan deterministically injects transient task failures,
//     one permanent executor kill, and straggler slowdowns, all derived
//     from a seed (reproducible chaos — same plan, same faults).
//   - Every map stage runs one scheduler, with or without a plan: the
//     panels form one task list, and the live executors claim tasks from a
//     shared cursor. A task comes back to the end of that list by one route
//     (requeue) on three events: a transient failure, after its capped
//     exponential backoff; an executor dying while it holds the task; and a
//     straggler getting a speculative duplicate. The panel lineage
//     (operator + row range) is enough to recompute a task anywhere.
//   - Completed panels are durable: kernels write zero-copy into the
//     driver-side output buffer, so death after a kernel finishes loses
//     nothing. Broadcast blocks lost with the executor are re-shipped,
//     charged against the traffic counters.
//   - When the retry budget is exhausted or no executor of the stage is
//     left alive, the operator degrades gracefully: runPanels reports
//     failure, ExecHop answers ok=false, and the runtime transparently
//     recomputes the operator on the local backend (counted in
//     dist.degraded) instead of erroring the run.

// FaultPlan configures deterministic, seedable fault injection for a
// Cluster. A nil plan and the zero value inject nothing; the scheduler is
// the same either way. Transient failures are drawn as a pure function of
// (Seed, operator sequence, panel, failures drawn so far) and stragglers of
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

	// RetryBudget caps total transient retries per operator before it
	// degrades; 0 defaults to 64.
	RetryBudget int

	// SpecMultiple is the straggler threshold: a task whose first attempt
	// has been straggling longer than SpecMultiple × the median completed
	// task duration gets a speculative duplicate; 0 defaults to 3.
	SpecMultiple float64

	// BackoffBase and BackoffCap bound the capped exponential backoff
	// between transient retries (base·2^failures, clamped to cap). Zero
	// values default to 100µs and 5ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

const (
	// maxTaskRetries caps the transient retries of one task: its next
	// failure degrades the operator.
	maxTaskRetries = 4

	// minSurvivors is the live-executor floor of a map stage: with fewer
	// executors alive the operator degrades to local execution.
	minSurvivors = 1
)

// noFaults is the plan a cluster without one schedules under.
var noFaults FaultPlan

// Defaulted knob accessors: the zero value of every tuning field maps to a
// documented default so FaultPlan literals stay terse in tests and flags.

func (p *FaultPlan) retryBudget() int {
	if p.RetryBudget <= 0 {
		return 64
	}
	return p.RetryBudget
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

// backoff is the sleep before the retry of a task that has failed
// failures+1 times (failures < maxTaskRetries).
func (p *FaultPlan) backoff(failures int) time.Duration {
	base, cap := p.BackoffBase, p.BackoffCap
	if base <= 0 {
		base = 100 * time.Microsecond
	}
	if cap <= 0 {
		cap = 5 * time.Millisecond
	}
	return min(base<<failures, cap)
}

// killArmed reports whether the plan schedules a permanent executor kill.
func (p *FaultPlan) killArmed() bool {
	return p.KillExecutor >= 0 && p.KillAtTask > 0
}

// Injection decision domains: mixed into the hash so the transient and
// straggler decisions of the same attempt are independent draws.
const (
	faultDomainTransient = 0x7261
	faultDomainStraggler = 0x7374
)

// chance maps (seed, domain, op, panel, draw) to a uniform [0,1) draw via a
// splitmix64-style finalizer. Purely functional: injection does not depend
// on which goroutine claims which panel first.
func (p *FaultPlan) chance(domain, op, panel, draw int64) float64 {
	x := uint64(p.Seed)*0x9E3779B97F4A7C15 +
		uint64(domain)*0xBF58476D1CE4E5B9 +
		uint64(op)*0x94D049BB133111EB +
		uint64(panel)*0xD6E8FEB86659FD93 +
		uint64(draw)*0xA3EC647659359ACD
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func (p *FaultPlan) failTransient(op, panel, failures int64) bool {
	return p.TransientRate > 0 && p.chance(faultDomainTransient, op, panel, failures) < p.TransientRate
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
	// Reassigned counts panels whose owner (the executor the static owner
	// mapping gives them) died before they ran.
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
// suffix ("fault.transient" → the "dist.fault.transient" WriteMetrics
// writes).
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

// FaultActive reports whether a fault plan is attached.
func (c *Cluster) FaultActive() bool { return c.fault != nil }

// DeadExecutors returns the ids of permanently killed executors.
func (c *Cluster) DeadExecutors() []int {
	c.execMu.Lock()
	defer c.execMu.Unlock()
	out := make([]int, 0, len(c.deadExec))
	for e := range c.deadExec {
		out = append(out, e)
	}
	slices.Sort(out)
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
// candidates while the plan can inject stragglers. Short enough that
// speculation reacts within a straggler delay.
const idlePoll = 50 * time.Microsecond

// panelTask is one row-panel map task: its lineage (panel index + row
// range, enough to recompute it anywhere), the executor the static owner
// mapping gives it, and its lifecycle.
type panelTask struct {
	panel, lo, hi int
	owner         int
	state         atomic.Int32
	attempts      atomic.Int32
	fails         atomic.Int32  // transient failures drawn so far
	straggling    atomic.Int32  // attempts sleeping in a straggler delay
	startedNanos  atomic.Int64  // first attempt start, for straggler detection
	spec          atomic.Bool   // speculative duplicate launched
	done          chan struct{} // closed once the kernel ran: wakes sleeping attempts
}

// entry is one entry of the task list: a task, and whether it was put there
// as a speculative duplicate.
type entry struct {
	t    *panelTask
	spec bool
}

// faultRun schedules one operator's panels across the live executors. Each
// executor claims the next entry of the task list, runs it, and claims
// again, until nothing is left to claim or the run degrades.
type faultRun struct {
	c     *Cluster
	plan  *FaultPlan
	opSeq int64
	sp    obs.Span
	fn    func(panel, lo, hi int)
	start time.Time
	tasks []panelTask

	mu       sync.Mutex
	list     []entry // every panel once, then every task made claimable again
	cursor   int     // the next entry of list to claim
	done     int
	durs     []time.Duration // completed first-result durations (median)
	retries  int             // operator-level retry budget consumed
	degraded atomic.Bool
}

// liveExecutors returns the ids of the executors still alive, at most n.
func (c *Cluster) liveExecutors(n int) []int {
	var live []int
	for e := 0; e < c.executors() && len(live) < n; e++ {
		if !c.execDead(e) {
			live = append(live, e)
		}
	}
	return live
}

// schedule executes fn once per panel on the live executors. It returns
// false when the operator degraded (retry budget exhausted, or no executor
// left alive); the caller then discards partial output and reports
// ok=false so the runtime recomputes locally.
func (c *Cluster) schedule(sp obs.Span, ps [][2]int, fn func(panel, lo, hi int)) bool {
	plan := c.fault
	if plan == nil {
		plan = &noFaults
	}
	live := c.liveExecutors(len(ps))
	if len(live) < minSurvivors {
		return false
	}
	r := &faultRun{
		c:     c,
		plan:  plan,
		opSeq: atomic.AddInt64(&c.faultOpSeq, 1),
		sp:    sp,
		fn:    fn,
		start: time.Now(),
		tasks: make([]panelTask, len(ps)),
		list:  make([]entry, len(ps)),
	}
	for p, span := range ps {
		t := &r.tasks[p]
		t.panel, t.lo, t.hi = p, span[0], span[1]
		t.owner = live[owner(p, len(ps), len(live))]
		t.done = make(chan struct{})
		r.list[p] = entry{t: t}
	}
	// Rounds of one participant per live executor on the internal/par pool,
	// the caller first (a panic in a kernel reaches it as a *par.Panic). A
	// round ends when no executor finds an entry to claim; a task that came
	// back after its executor left (it died holding the task) is claimed in
	// the next round.
	for {
		par.ForLimit(len(live), 1, len(live), func(lo, hi int) {
			for _, e := range live[lo:hi] {
				r.executorLoop(e)
			}
		})
		if r.done == len(r.tasks) || r.degraded.Load() {
			return !r.degraded.Load()
		}
		if live = c.liveExecutors(len(r.list) - r.cursor); len(live) < minSurvivors {
			return false
		}
	}
}

// executorLoop is the body of one simulated executor: claim, attempt,
// repeat, until nothing is left to claim, the run is over or the executor
// is dead.
func (r *faultRun) executorLoop(e int) {
	for {
		next, ok := r.claim(e)
		if !ok {
			return
		}
		r.attempt(e, next)
	}
}

// claim returns executor e's next entry of the task list. With the list
// drained, e leaves — unless the plan can inject stragglers: then it stays
// until every task is done, to launch their speculative duplicates.
func (r *faultRun) claim(e int) (entry, bool) {
	for !r.c.execDead(e) && !r.degraded.Load() {
		r.mu.Lock()
		if r.cursor < len(r.list) {
			next := r.list[r.cursor]
			r.cursor++
			r.mu.Unlock()
			return next, true
		}
		watch := r.plan.StragglerRate > 0 && r.done < len(r.tasks)
		r.mu.Unlock()
		if !watch {
			break
		}
		if t := r.specCandidate(); t != nil {
			r.requeue(t, true)
		} else {
			time.Sleep(idlePoll)
		}
	}
	return entry{}, false
}

// requeue puts t back at the end of the task list, where any live executor
// claims it: the one route back for a transient failure after its backoff,
// a task whose executor died holding it, and a straggler's speculative
// duplicate.
func (r *faultRun) requeue(t *panelTask, spec bool) {
	r.mu.Lock()
	r.list = append(r.list, entry{t, spec})
	r.mu.Unlock()
}

// complete records a finished task and its duration (first attempt start to
// completion, injected delays included — exactly what a straggler inflates
// and speculation must beat).
func (r *faultRun) complete(t *panelTask) {
	d := time.Since(r.start) - time.Duration(t.startedNanos.Load())
	r.mu.Lock()
	r.done++
	r.durs = append(r.durs, d)
	r.mu.Unlock()
}

// specCandidate finds a pending task that has been straggling longer than
// specMultiple × the median completed-task duration and claims the right
// to launch its (single) speculative duplicate.
func (r *faultRun) specCandidate() *panelTask {
	r.mu.Lock()
	if len(r.durs) < 3 {
		r.mu.Unlock()
		return nil
	}
	med := slices.Clone(r.durs)
	r.mu.Unlock()
	slices.Sort(med)
	// The 1ms floor keeps speculation off noise.
	threshold := max(time.Duration(float64(med[len(med)/2])*r.plan.specMultiple()), time.Millisecond)
	elapsed := time.Since(r.start)
	for i := range r.tasks {
		t := &r.tasks[i]
		if t.straggling.Load() == 0 || t.state.Load() != taskPending ||
			elapsed-time.Duration(t.startedNanos.Load()) <= threshold || !t.spec.CompareAndSwap(false, true) {
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

// attempt runs one claim of a task on executor e. The injected fault
// sequence is: executor death (requeue), transient failure (backoff, then
// requeue), straggler delay (a sleep a speculative duplicate can end), then
// the kernel, guarded by the pending→executing CAS so the kernel runs at
// most once per task even while a duplicate races the original. Running at
// most once matters beyond mutual exclusion: panel kernels accumulate into
// the zero-initialized output window (C += A·B), so a second execution
// would double the panel. That is also why executor death is checked only
// BEFORE the CAS: outputs are written zero-copy into the driver-side
// buffer, so once the kernel has run the result is durable — a kill can
// only orphan tasks that have not executed yet.
func (r *faultRun) attempt(e int, c entry) {
	t := c.t
	if r.degraded.Load() || t.state.Load() != taskPending {
		return // the run is over, or a sibling claim runs or ran the kernel
	}
	a := int64(t.attempts.Add(1) - 1)
	r.c.maybeKill(r.plan, atomic.AddInt64(&r.c.faultTaskStarts, 1))
	if r.c.execDead(e) {
		r.requeue(t, false) // e died holding the task
		return
	}
	t.startedNanos.CompareAndSwap(0, int64(time.Since(r.start)))
	// Transient failures are drawn by how often the task has failed so far,
	// not by the attempt number: requeues and speculative duplicates also
	// number attempts, and when those happen is a matter of scheduling. A
	// duplicate that draws the failure its sibling already recorded leaves
	// the retry to that sibling.
	if f := t.fails.Load(); r.plan.failTransient(r.opSeq, int64(t.panel), int64(f)) {
		if t.fails.CompareAndSwap(f, f+1) && r.backoff(e, t, int(f)) {
			r.requeue(t, false)
		}
		return
	}
	if r.plan.straggle(r.opSeq, int64(t.panel), a) {
		atomic.AddInt64(&r.c.ftStragglers, 1)
		t.straggling.Add(1)
		slept := sleepUnless(r.plan.stragglerDelay(), t.done)
		t.straggling.Add(-1)
		if !slept {
			return // the speculative duplicate ran the kernel
		}
		if r.c.execDead(e) {
			// Killed while straggling: the kernel never ran here, so the
			// task is lost with this executor.
			r.requeue(t, false)
			return
		}
	}
	if r.degraded.Load() || !t.state.CompareAndSwap(taskPending, taskExecuting) {
		return
	}
	if r.c.execDead(t.owner) {
		atomic.AddInt64(&r.c.ftReassigned, 1)
		if r.sp.Active() {
			r.sp.Child("dist.reassign",
				obs.KV("panel", t.panel),
				obs.KV("from.executor", t.owner),
				obs.KV("to.executor", e)).End()
		}
	}
	r.fn(t.panel, t.lo, t.hi)
	t.state.Store(taskDone)
	close(t.done)
	if c.spec {
		atomic.AddInt64(&r.c.ftSpecWins, 1)
	}
	r.complete(t)
}

// backoff accounts the transient failure number f+1 of task t on executor e
// and sleeps its backoff. It reports whether the task is to be retried:
// false when the failure exhausted the per-task cap or the operator's retry
// budget (the run degrades), or when a duplicate finished the task during
// the backoff.
func (r *faultRun) backoff(e int, t *panelTask, f int) bool {
	atomic.AddInt64(&r.c.ftTransient, 1)
	r.mu.Lock()
	r.retries++
	budget := r.retries <= r.plan.retryBudget()
	r.mu.Unlock()
	if f >= maxTaskRetries || !budget {
		r.degraded.Store(true)
		return false
	}
	atomic.AddInt64(&r.c.ftRetries, 1)
	d := r.plan.backoff(f)
	atomic.AddInt64(&r.c.ftBackoffNanos, int64(d))
	if r.sp.Active() {
		r.sp.Child("dist.retry",
			obs.KV("panel", t.panel),
			obs.KV("attempt", f+1),
			obs.KV("executor", e),
			obs.KV("backoff.ns", int64(d))).End()
	}
	return sleepUnless(d, t.done)
}

// sleepUnless sleeps for d unless done closes first; it reports whether the
// full sleep elapsed.
func sleepUnless(d time.Duration, done <-chan struct{}) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-done:
		return false
	}
}
