// Package dist implements the simulated distributed (Spark-like) backend:
// block-partitioned matrices executed by a pool of simulated executor
// workers, with explicit accounting of broadcast and shuffle volumes and a
// simulated network time derived from configurable bandwidths. Computation
// is real (the same kernels as local execution, so results are identical);
// only the cluster topology is simulated (see DESIGN.md substitutions).
//
// Three mechanisms make the backend performance-credible (DESIGN.md §10):
//
//   - A broadcast handle cache keyed by matrix identity: a side input is
//     shipped to the executors once per cluster lifetime, so iterative
//     algorithms stop paying per-iteration broadcast bytes. Handles are
//     invalidated through Invalidate — called by the runtime when the
//     buffer pool reclaims an intermediate and by the interpreter when a
//     write rebinds a variable.
//   - Pooled, zero-copy panel execution: map stages run on the internal/par
//     worker pool (one participant per live executor, claiming panels from
//     one task list; fault.go) and panel kernels write directly into row
//     views of the pooled output instead of materializing a per-panel
//     intermediate and copying it back.
//   - Tree aggregation: partial aggregates are pre-reduced locally per
//     executor (no network) and then combined along a binary tree, so
//     shuffle volume scales with the executor count — not the partition
//     count — and the simulated transfer time with its log depth. Sparse
//     partials ship at their sparse size.
package dist

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	rt "sysml/internal/runtime"
)

// panelsPerExecutor is the target number of map tasks per executor,
// mirroring internal/par's chunkFactor: enough chunks that a straggling
// panel load-balances, few enough that per-task overhead stays cold.
const panelsPerExecutor = 4

// bcastCacheMaxEntries bounds the broadcast handle cache; beyond it the
// oldest handle is evicted (counted separately from invalidations).
const bcastCacheMaxEntries = 1024

// Cluster models the simulated cluster: executor count, per-executor
// memory, distributed blocksize, and network bandwidth for broadcast and
// shuffle traffic. A Cluster is safe for concurrent use by multiple
// sessions.
type Cluster struct {
	NumExecutors     int
	ExecutorMemBytes int64
	Blocksize        int
	NetBandwidth     float64 // bytes/s

	bytesBroadcast int64
	bytesShuffled  int64
	netNanos       int64

	// The broadcast handle cache. Keys are matrix identities (*Matrix
	// pointers are unique while referenced); values are the bytes charged
	// at first broadcast. bcastOrder is FIFO eviction order and may hold
	// stale pointers of invalidated entries — eviction skips them.
	bcastMu      sync.Mutex
	bcastSeen    map[*matrix.Matrix]int64
	bcastOrder   []*matrix.Matrix
	bcastOff     int32 // non-zero disables the cache (bench baselines)
	bcastHits    int64
	bcastMisses  int64
	bcastInvals  int64
	bcastEvicted int64

	// Per-stage shuffle volumes ("agg", "spoof"), for Metrics and /metrics.
	stageMu    sync.Mutex
	stageBytes map[string]int64

	// Fault injection and recovery state (fault.go). fault is attached
	// before the cluster is shared and never mutated afterwards; nil
	// injects nothing, like the zero plan.
	fault           *FaultPlan
	faultOpSeq      int64 // operator sequence number (injection hash input)
	faultTaskStarts int64 // global task-attempt counter (kill trigger)
	killFired       int32

	// Permanently killed executors. deadCount mirrors len(deadExec)
	// atomically so the common all-alive case never takes the lock.
	execMu    sync.Mutex
	deadExec  map[int]bool
	deadCount int64

	// Fault/recovery counters (snapshot via FaultStats).
	ftTransient    int64
	ftStragglers   int64
	ftKills        int64
	ftReassigned   int64
	ftRetries      int64
	ftBackoffNanos int64
	ftSpecLaunched int64
	ftSpecWins     int64
	ftDegraded     int64

	// Broadcast blocks re-shipped to survivors after an executor kill.
	bcastReships     int64
	bcastReshipBytes int64

	// Compressed-wire accounting (compress.go): bytes shipped in compressed
	// form and bytes saved versus dense shipping. cwOff disables the codec
	// (bench baselines).
	cwOff        int32
	cwBcastBytes int64
	cwBcastSaved int64
	cwShuffleBytes,
	cwShufSaved int64
}

// Option configures a Cluster at construction time.
type Option func(*Cluster)

// WithFaultPlan attaches a deterministic fault-injection plan: the panel
// scheduler every map stage runs injects the plan's faults and recovers
// from them (see fault.go).
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *Cluster) { c.fault = p }
}

// WithExecutors overrides the simulated executor count.
func WithExecutors(n int) Option {
	return func(c *Cluster) { c.NumExecutors = n }
}

// NewCluster mirrors the paper's 6-executor setup scaled down.
func NewCluster(opts ...Option) *Cluster {
	c := &Cluster{
		NumExecutors:     6,
		ExecutorMemBytes: 1 << 30,
		Blocksize:        1000,
		NetBandwidth:     1.25e9, // 10 Gb Ethernet
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// SetFaultPlan attaches a fault plan (nil detaches). Set it before the
// cluster executes operators — the plan is read without synchronization by
// running map stages.
func (c *Cluster) SetFaultPlan(p *FaultPlan) { c.fault = p }

// BytesBroadcast returns the accumulated broadcast volume.
func (c *Cluster) BytesBroadcast() int64 { return atomic.LoadInt64(&c.bytesBroadcast) }

// BytesShuffled returns the accumulated shuffle volume.
func (c *Cluster) BytesShuffled() int64 { return atomic.LoadInt64(&c.bytesShuffled) }

// NetTime returns the simulated network time implied by the traffic.
// Transfers of one tree-reduction level overlap (disjoint executor pairs),
// so a level costs its largest transfer, not the sum.
func (c *Cluster) NetTime() time.Duration { return time.Duration(atomic.LoadInt64(&c.netNanos)) }

// BroadcastCacheStats returns the handle-cache counters: hits (broadcasts
// satisfied without traffic), misses (first-time broadcasts), and
// invalidations (handles dropped by Invalidate or FIFO eviction).
func (c *Cluster) BroadcastCacheStats() (hits, misses, invalidations int64) {
	return atomic.LoadInt64(&c.bcastHits), atomic.LoadInt64(&c.bcastMisses),
		atomic.LoadInt64(&c.bcastInvals) + atomic.LoadInt64(&c.bcastEvicted)
}

// WriteMetrics writes the cluster's dist.* instruments into snap: traffic
// volumes and the simulated network time, the broadcast handle cache,
// shuffle bytes per stage, the executor count and how many of them are
// dead, the compressed-wire volumes once any shipped and, while a fault
// plan is attached, the fault and recovery counters.
func (c *Cluster) WriteMetrics(snap obs.Snapshot) {
	snap.Counters["dist.bytes.broadcast"] = c.BytesBroadcast()
	snap.Counters["dist.bytes.shuffled"] = c.BytesShuffled()
	snap.Gauges["dist.net.seconds"] = c.NetTime().Seconds()
	hits, misses, invals := c.BroadcastCacheStats()
	snap.Counters["dist.bcast.hits"] = hits
	snap.Counters["dist.bcast.misses"] = misses
	snap.Counters["dist.bcast.invalidations"] = invals
	if lookups := hits + misses; lookups > 0 {
		snap.Gauges["dist.bcast.hitrate"] = float64(hits) / float64(lookups)
	}
	c.stageMu.Lock()
	for stage, bytes := range c.stageBytes {
		snap.Counters["dist.shuffle.bytes."+stage] = bytes
	}
	c.stageMu.Unlock()
	snap.Gauges["dist.executors"] = float64(c.NumExecutors)
	snap.Gauges["dist.executors.dead"] = float64(atomic.LoadInt64(&c.deadCount))
	if cb, cs, sb, ss := c.CompressedWireStats(); cb+cs+sb+ss > 0 {
		snap.Counters["dist.bcast.compressed_bytes"] = cb
		snap.Counters["dist.bcast.saved_bytes"] = cs
		snap.Counters["dist.shuffle.compressed_bytes"] = sb
		snap.Counters["dist.shuffle.saved_bytes"] = ss
	}
	if c.FaultActive() {
		for k, v := range c.FaultCounters() {
			snap.Counters["dist."+k] = v
		}
	}
}

// SetBroadcastCache toggles the broadcast handle cache and returns the
// previous setting. Disabling drops all handles (the bench gates use this
// to measure the pre-overhaul per-operator re-broadcast volume).
func (c *Cluster) SetBroadcastCache(on bool) bool {
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	old := c.bcastOff == 0
	if on {
		c.bcastOff = 0
	} else {
		c.bcastOff = 1
		c.bcastSeen = nil
		c.bcastOrder = nil
	}
	return old
}

// Invalidate drops the broadcast handle derived from m, if any. The
// runtime calls it when the buffer pool reclaims an intermediate (its
// storage is about to be rewritten) and the interpreter when a write
// rebinds the variable the matrix was bound to; both events make a cached
// handle unsafe to reuse. Implements runtime.DistBackend.
func (c *Cluster) Invalidate(m *matrix.Matrix) {
	if m == nil {
		return
	}
	c.bcastMu.Lock()
	if _, ok := c.bcastSeen[m]; ok {
		delete(c.bcastSeen, m)
		atomic.AddInt64(&c.bcastInvals, 1)
	}
	c.bcastMu.Unlock()
}

// Reset clears the traffic counters, cache statistics and fault/recovery
// counters. Cached broadcast handles and dead executors survive — they are
// cluster state, not statistics (drop handles via SetBroadcastCache(false) +
// (true)).
func (c *Cluster) Reset() {
	atomic.StoreInt64(&c.ftTransient, 0)
	atomic.StoreInt64(&c.ftStragglers, 0)
	atomic.StoreInt64(&c.ftKills, 0)
	atomic.StoreInt64(&c.ftReassigned, 0)
	atomic.StoreInt64(&c.ftRetries, 0)
	atomic.StoreInt64(&c.ftBackoffNanos, 0)
	atomic.StoreInt64(&c.ftSpecLaunched, 0)
	atomic.StoreInt64(&c.ftSpecWins, 0)
	atomic.StoreInt64(&c.ftDegraded, 0)
	atomic.StoreInt64(&c.bcastReships, 0)
	atomic.StoreInt64(&c.bcastReshipBytes, 0)
	atomic.StoreInt64(&c.bytesBroadcast, 0)
	atomic.StoreInt64(&c.bytesShuffled, 0)
	atomic.StoreInt64(&c.netNanos, 0)
	atomic.StoreInt64(&c.bcastHits, 0)
	atomic.StoreInt64(&c.bcastMisses, 0)
	atomic.StoreInt64(&c.bcastInvals, 0)
	atomic.StoreInt64(&c.bcastEvicted, 0)
	atomic.StoreInt64(&c.cwBcastBytes, 0)
	atomic.StoreInt64(&c.cwBcastSaved, 0)
	atomic.StoreInt64(&c.cwShuffleBytes, 0)
	atomic.StoreInt64(&c.cwShufSaved, 0)
	c.stageMu.Lock()
	c.stageBytes = nil
	c.stageMu.Unlock()
}

func (c *Cluster) executors() int {
	if c.NumExecutors < 1 {
		return 1
	}
	return c.NumExecutors
}

func (c *Cluster) addBroadcast(bytes int64) {
	atomic.AddInt64(&c.bytesBroadcast, bytes)
	atomic.AddInt64(&c.netNanos, int64(float64(bytes)/c.NetBandwidth*1e9))
}

// addShuffle accounts one tree-reduction level: bytes is the level's total
// transfer volume, serialBytes its largest single transfer (the level's
// transfers run on disjoint executor pairs and overlap on the wire).
func (c *Cluster) addShuffle(bytes, serialBytes int64) {
	atomic.AddInt64(&c.bytesShuffled, bytes)
	atomic.AddInt64(&c.netNanos, int64(float64(serialBytes)/c.NetBandwidth*1e9))
}

func (c *Cluster) addStageBytes(stage string, bytes int64) {
	c.stageMu.Lock()
	if c.stageBytes == nil {
		c.stageBytes = map[string]int64{}
	}
	c.stageBytes[stage] += bytes
	c.stageMu.Unlock()
}

// ExecHop implements runtime.DistBackend: it executes one operator over
// row panels of its main input across the simulated executors. Unsupported
// shapes report ok=false and fall back to local execution. sp is the
// operator's trace span; broadcast, map, and shuffle stages emit child
// spans with byte-size and partition-count attributes.
func (c *Cluster) ExecHop(h *hop.Hop, inputs []*matrix.Matrix, sp obs.Span) (*matrix.Matrix, bool) {
	switch h.Kind {
	case hop.OpBinary, hop.OpUnary:
		return c.mapOp(h, inputs, sp)
	case hop.OpAggUnary:
		return c.aggOp(h, inputs, sp)
	case hop.OpMatMult:
		return c.matMult(h, inputs, sp)
	case hop.OpSpoof:
		return c.spoof(h, inputs, sp)
	}
	return nil, false
}

// Panels splits [0, rows) into map-task row ranges. The split starts from
// the distributed blocksize and re-chunks toward panelsPerExecutor tasks
// per executor (mirroring internal/par's chunks-per-worker rule): fewer
// blocks than executors split below the blocksize so every executor gets
// work; thousands of tiny blocks coalesce into multi-block tasks so task
// dispatch does not dominate.
func (c *Cluster) Panels(rows int) [][2]int {
	bs := c.Blocksize
	if bs < 1 {
		bs = rows
	}
	target := c.executors() * panelsPerExecutor
	chunk := bs
	if nblocks := (rows + bs - 1) / bs; nblocks < target {
		// Sub-block panels: ceil so the task count never exceeds target.
		chunk = (rows + target - 1) / target
		if chunk < 1 {
			chunk = 1
		}
	} else if nblocks > target {
		// Whole blocks per task, evenly spread over the target task count.
		chunk = bs * (nblocks / target)
	}
	out := make([][2]int, 0, (rows+chunk-1)/chunk)
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// runPanels executes fn per panel on the live executors under a "dist.map"
// span carrying the partition count. Every map stage runs the one panel
// scheduler (fault.go), which injects the attached plan's faults, if any,
// and recovers from them. Panels are claimed dynamically, so fn must not
// assume any panel→goroutine assignment; per-executor state is modeled by
// the static owner mapping instead. Returns the panel count and whether
// the stage completed — false means the operator degraded (retry budget or
// survivor floor exhausted) and the caller must discard partial output so
// the runtime recomputes locally.
func (c *Cluster) runPanels(sp obs.Span, rows int, fn func(panel, lo, hi int)) (int, bool) {
	ps := c.Panels(rows)
	msp := sp.Child("dist.map",
		obs.KV("partitions", len(ps)),
		obs.KV("rows", rows),
		obs.KV("executors", c.executors()))
	defer msp.End()
	if !c.schedule(msp, ps, fn) {
		atomic.AddInt64(&c.ftDegraded, 1)
		msp.Annotate(obs.KV("degraded", true))
		return len(ps), false
	}
	return len(ps), true
}

// owner maps a panel index to the executor that hosts it: a static blocked
// assignment, so shuffle topology is a function of the cluster — not of
// which pool goroutine happened to claim which panel.
func owner(panel, npanels, executors int) int {
	return panel * executors / npanels
}

// localReduce folds per-panel partials into per-executor accumulators
// following the static owner mapping. The fold happens on the hosting
// executor (no network); only its results enter the shuffle tree. Inputs
// are consumed.
func (c *Cluster) localReduce(parts []*matrix.Matrix, combine func(acc, p *matrix.Matrix) *matrix.Matrix) []*matrix.Matrix {
	execs := c.executors()
	if execs > len(parts) {
		execs = len(parts)
	}
	accs := make([]*matrix.Matrix, execs)
	for p, part := range parts {
		e := owner(p, len(parts), execs)
		if accs[e] == nil {
			accs[e] = part
		} else {
			accs[e] = combine(accs[e], part)
		}
	}
	return accs
}

// broadcastAll accounts for shipping the given side inputs to every
// executor, under a "dist.broadcast" span carrying the shipped and
// cache-served volumes. A side already in the handle cache costs nothing;
// a fresh one is charged size×executors and cached. Scalars (1×1) are
// charged but never cached: literals are re-materialized per DAG, so their
// identity is worthless as a key.
func (c *Cluster) broadcastAll(sides []*matrix.Matrix, sp obs.Span) {
	var bytes, cachedBytes int64
	cached := 0
	for _, s := range sides {
		if s == nil {
			continue
		}
		full := s.SizeBytes() * int64(c.executors())
		if c.broadcastCached(s) {
			cachedBytes += full
			cached++
			continue
		}
		// Ship the compressed form when the wire codec wins: every
		// executor receives the serialized column groups (or the
		// dictionary-coded payload) instead of the dense block.
		if wire, compressed := c.wireBytes(s); compressed {
			if ship := wire * int64(c.executors()); ship < full {
				atomic.AddInt64(&c.cwBcastBytes, ship)
				atomic.AddInt64(&c.cwBcastSaved, full-ship)
				bytes += ship
				continue
			}
		}
		bytes += full
	}
	if bytes == 0 && cached == 0 {
		return
	}
	bsp := sp.Child("dist.broadcast",
		obs.KV("bytes", bytes),
		obs.KV("sides", len(sides)),
		obs.KV("cached", cached),
		obs.KV("bytes.cached", cachedBytes),
		obs.KV("executors", c.executors()))
	if bytes > 0 {
		c.addBroadcast(bytes)
	}
	bsp.End()
}

// broadcastCached reports whether m's broadcast handle is cached, creating
// the handle (a miss) when the cache is enabled and m is cacheable.
func (c *Cluster) broadcastCached(m *matrix.Matrix) bool {
	if m.Rows == 1 && m.Cols == 1 {
		return false
	}
	c.bcastMu.Lock()
	defer c.bcastMu.Unlock()
	if c.bcastOff != 0 {
		return false
	}
	if _, ok := c.bcastSeen[m]; ok {
		atomic.AddInt64(&c.bcastHits, 1)
		return true
	}
	atomic.AddInt64(&c.bcastMisses, 1)
	if c.bcastSeen == nil {
		c.bcastSeen = map[*matrix.Matrix]int64{}
	}
	for len(c.bcastSeen) >= bcastCacheMaxEntries && len(c.bcastOrder) > 0 {
		old := c.bcastOrder[0]
		c.bcastOrder = c.bcastOrder[1:]
		if _, ok := c.bcastSeen[old]; ok {
			delete(c.bcastSeen, old)
			atomic.AddInt64(&c.bcastEvicted, 1)
		}
	}
	c.bcastSeen[m] = m.SizeBytes() * int64(c.executors())
	c.bcastOrder = append(c.bcastOrder, m)
	return false
}

// treeReduce combines per-executor partials along a binary tree, charging
// each cross-executor transfer at the shipped partial's actual (possibly
// sparse) size and each level's wire time at its largest transfer. The
// shuffle span reports panelCount, the map partitions the partials came from.
func (c *Cluster) treeReduce(sp obs.Span, stage string, parts []*matrix.Matrix, panelCount int,
	combine func(acc, p *matrix.Matrix) *matrix.Matrix) *matrix.Matrix {
	var total int64
	levels := 0
	for len(parts) > 1 {
		levels++
		var levelBytes, levelMax int64
		next := parts[:0]
		for i := 0; i+1 < len(parts); i += 2 {
			ship := c.shipBytes(parts[i+1])
			levelBytes += ship
			if ship > levelMax {
				levelMax = ship
			}
			next = append(next, combine(parts[i], parts[i+1]))
		}
		if len(parts)%2 == 1 {
			next = append(next, parts[len(parts)-1])
		}
		c.addShuffle(levelBytes, levelMax)
		total += levelBytes
		parts = next
	}
	c.addStageBytes(stage, total)
	ssp := sp.Child("dist.shuffle",
		obs.KV("bytes", total),
		obs.KV("stage", stage),
		obs.KV("levels", levels),
		obs.KV("partitions", panelCount))
	ssp.End()
	return parts[0]
}

// releaseParts returns partial results of an abandoned (degraded or
// failed) reduction stage to the buffer pool.
func releaseParts(parts []*matrix.Matrix) {
	for _, p := range parts {
		if p != nil {
			p.Release()
		}
	}
}

// combineBinary reduces two partials with op, releasing both inputs'
// storage to the buffer pool. Sparse partials stay sparse when the kernel
// preserves sparsity, keeping later tree levels cheap to ship.
func combineBinary(op matrix.BinOp, acc, p *matrix.Matrix) *matrix.Matrix {
	r := matrix.Binary(op, acc, p)
	if r != acc {
		acc.Release()
	}
	if r != p {
		p.Release()
	}
	return r
}

// coPartitioned reports whether a side input is row-aligned with the main
// input — stored on the same executors, sliced per panel rather than
// broadcast. This deliberately includes r×1 column vectors: the seed
// counted those as broadcast (they fail a Cols>1 test) yet row-sliced them
// in the kernel, charging bytes for traffic that never needs to happen.
func coPartitioned(m, main *matrix.Matrix) bool {
	return m.Rows == main.Rows && main.Rows > 1
}

func (c *Cluster) mapOp(h *hop.Hop, inputs []*matrix.Matrix, sp obs.Span) (*matrix.Matrix, bool) {
	main := inputs[0]
	if main.Rows < 2 {
		return nil, false
	}
	var bcast []*matrix.Matrix
	for _, in := range inputs[1:] {
		if !coPartitioned(in, main) {
			bcast = append(bcast, in)
		}
	}
	c.broadcastAll(bcast, sp)
	out := matrix.NewDense(main.Rows, int(h.Cols))
	if _, ok := c.runPanels(sp, main.Rows, func(_, lo, hi int) {
		dst := out.RowView(lo, hi)
		if h.Kind == hop.OpUnary {
			matrix.UnaryInto(dst, h.UnOp, main.RowView(lo, hi))
			return
		}
		b := inputs[1]
		rb := b
		if coPartitioned(b, main) {
			rb = b.RowView(lo, hi)
		}
		matrix.BinaryInto(dst, h.BinOp, main.RowView(lo, hi), rb)
	}); !ok {
		out.Release()
		return nil, false
	}
	return out.InPreferredFormat(), true
}

func (c *Cluster) aggOp(h *hop.Hop, inputs []*matrix.Matrix, sp obs.Span) (*matrix.Matrix, bool) {
	main := inputs[0]
	if main.Rows < 2 || h.AggDir == matrix.DirCol && h.AggOp != matrix.AggSum {
		return nil, false
	}
	switch h.AggDir {
	case matrix.DirRow:
		out := matrix.NewDense(main.Rows, 1)
		if _, ok := c.runPanels(sp, main.Rows, func(_, lo, hi int) {
			matrix.AggInto(out.RowView(lo, hi), h.AggOp, matrix.DirRow, main.RowView(lo, hi))
		}); !ok {
			out.Release()
			return nil, false
		}
		return out, true
	case matrix.DirCol, matrix.DirAll:
		if h.AggOp == matrix.AggMean {
			return nil, false // mean over partials needs counts; fall back
		}
		op := matrix.BinAdd
		switch h.AggOp {
		case matrix.AggMin:
			op = matrix.BinMin
		case matrix.AggMax:
			op = matrix.BinMax
		}
		// Per-panel partials, pre-reduced locally on each hosting executor
		// (no network); only the per-executor results enter the shuffle
		// tree.
		parts := make([]*matrix.Matrix, len(c.Panels(main.Rows)))
		n, ok := c.runPanels(sp, main.Rows, func(p, lo, hi int) {
			parts[p] = matrix.Agg(h.AggOp, h.AggDir, main.RowView(lo, hi))
		})
		if !ok {
			releaseParts(parts)
			return nil, false
		}
		combine := func(a, p *matrix.Matrix) *matrix.Matrix {
			return combineBinary(op, a, p)
		}
		out := c.treeReduce(sp, "agg", c.localReduce(parts, combine), n, combine)
		return out, true
	}
	return nil, false
}

// matMult executes the broadcast-based mapmm: the larger side stays
// partitioned, the smaller side is broadcast (once, via the handle cache),
// and every map task writes its C panel in place — no shuffle.
func (c *Cluster) matMult(h *hop.Hop, inputs []*matrix.Matrix, sp obs.Span) (*matrix.Matrix, bool) {
	a, b := inputs[0], inputs[1]
	if b.SizeBytes() > c.ExecutorMemBytes/2 || a.Rows < 2 {
		return nil, false
	}
	c.broadcastAll([]*matrix.Matrix{b}, sp)
	out := matrix.NewDense(a.Rows, b.Cols)
	if _, ok := c.runPanels(sp, a.Rows, func(_, lo, hi int) {
		matrix.MatMultInto(out.RowView(lo, hi), a.RowView(lo, hi), b)
	}); !ok {
		out.Release()
		return nil, false
	}
	return out, true
}

// spoof executes a fused operator over row panels of the main input with
// broadcast side inputs, reducing aggregated variants through the tree.
func (c *Cluster) spoof(h *hop.Hop, inputs []*matrix.Matrix, sp obs.Span) (*matrix.Matrix, bool) {
	op, ok := h.Spoof.(*cplan.Operator)
	if !ok {
		return nil, false
	}
	main := inputs[0]
	if main.Rows < 2 {
		return nil, false
	}
	// Row templates require whole rows per block (§4.1): enforced at plan
	// time, double-checked here.
	if op.Plan.Type == cplan.TemplateRow && main.Cols > c.Blocksize {
		return nil, false
	}
	// Aggregated variants reduce partials by addition: only sums are safe.
	cellRows := op.Plan.Type == cplan.TemplateCell && (op.Plan.Cell == cplan.CellNoAgg || op.Plan.Cell == cplan.CellRowAgg)
	for _, a := range append([]matrix.AggOp{op.Plan.AggOp}, op.Plan.AggOps...) {
		if a != matrix.AggSum && a != matrix.AggSumSq && !cellRows {
			return nil, false
		}
	}
	// Row-aligned side inputs (including Outer's U) are co-partitioned and
	// sliced per panel; only the rest is broadcast.
	var bcast []*matrix.Matrix
	for _, in := range inputs[1:] {
		if !coPartitioned(in, main) {
			bcast = append(bcast, in)
		}
	}
	c.broadcastAll(bcast, sp)

	ps := c.Panels(main.Rows)
	parts := make([]*matrix.Matrix, len(ps))
	var bad atomic.Bool
	n, ok := c.runPanels(sp, main.Rows, func(p, lo, hi int) {
		ins := append([]*matrix.Matrix(nil), inputs...)
		for i, in := range ins {
			if i == 0 || coPartitioned(in, main) {
				ins[i] = in.RowView(lo, hi)
			}
		}
		res, _, err := rt.ExecSpoof(matrix.Ctx{}, h, ins, nil)
		if err != nil {
			bad.Store(true)
			return
		}
		parts[p] = res
	})
	if !ok || bad.Load() || slices.Contains(parts, nil) {
		releaseParts(parts)
		return nil, false
	}
	if cellRows || op.Plan.Type == cplan.TemplateRow && (op.Plan.Row == cplan.RowNoAgg || op.Plan.Row == cplan.RowRowAgg) ||
		op.Plan.Type == cplan.TemplateOuter && (op.Plan.Out == cplan.OuterRightMM || op.Plan.Out == cplan.OuterNoAgg) {
		// Row-aligned results concatenate in panel order: each part lands
		// in its row range of one pooled output (the seed's repeated RBind
		// chain copied the accumulated prefix once per panel).
		out := matrix.NewDense(main.Rows, parts[0].Cols)
		for i, part := range parts {
			matrix.CopyInto(out.RowView(ps[i][0], ps[i][1]), part)
			part.Release()
		}
		return out.InPreferredFormat(), true
	}
	// Aggregated variants: per-panel partials pre-reduced locally on their
	// hosting executor, tree-combined by addition.
	combine := func(a, p *matrix.Matrix) *matrix.Matrix {
		return combineBinary(matrix.BinAdd, a, p)
	}
	return c.treeReduce(sp, "spoof", c.localReduce(parts, combine), n, combine), true
}
