package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"sysml/internal/dml"
)

// Micro-batching: scoring traffic is dominated by many small requests
// running the same script over same-shaped inputs — i.e. resolving to the
// same compiled plan. While the tenant has a free session slot every such
// request runs at once on a slot of its own: waiting for company would only
// add latency. Coalescing pays exactly when the tenant is at its
// MaxSessions: the first request for a plan key that finds no slot becomes
// the batch leader and blocks in Tenant.acquire; requests for the same key
// that arrive while it is blocked join its group as followers instead of
// queueing for slots of their own. Once the leader holds a session it closes
// the group and executes the whole batch back-to-back on that ONE session —
// one quota slot, one warm block-plan cache, one warm operator cache — and
// fans the results back out. No request ever waits for a timer.

// maxBatch caps how many requests one leader may execute back-to-back, so
// an unlucky leader's latency stays bounded under a flood.
const maxBatch = 32

// planKey identifies requests that resolve to the same compiled plan:
// same tenant, same script, same input shapes (shape changes recompile
// under dynamic recompilation, so they must not share a batch).
type planKey struct {
	tenant string
	script uint64
	shapes uint64
}

// String renders the key for flight-recorder records: tenant plus the
// script and shape fingerprints in hex.
func (k planKey) String() string {
	return fmt.Sprintf("%s/%016x/%016x", k.tenant, k.script, k.shapes)
}

// keyFor fingerprints a request. Input names are hashed in sorted order so
// map iteration order cannot split a batch.
func keyFor(tenant, script string, inputs map[string]InputSpec) planKey {
	h := fnv.New64a()
	h.Write([]byte(script))
	k := planKey{tenant: tenant, script: h.Sum64()}
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	h = fnv.New64a()
	for _, name := range names {
		in := inputs[name]
		h.Write([]byte(name))
		for _, v := range []int{in.Rows, in.Cols} {
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	k.shapes = h.Sum64()
	return k
}

// batchJob is one request riding a batch; the leader signals done after
// filling result or err.
type batchJob struct {
	id    string    // request ID (X-Request-ID or generated)
	start time.Time // arrival time, for the per-job latency split
	req   *RunRequest
	resp  *RunResponse
	err   error
	done  chan struct{}
}

type batchGroup struct {
	jobs []*batchJob
}

// batcher coalesces same-plan requests. One per Server. groups holds the
// open group of each plan key whose leader is blocked waiting for a slot.
type batcher struct {
	mu     sync.Mutex
	groups map[planKey]*batchGroup
}

func newBatcher() *batcher {
	return &batcher{groups: map[planKey]*batchGroup{}}
}

// submit admits a job to tenant t. jobs is non-nil exactly when the caller
// is a batch leader: it then holds sess (or the acquire error, which sheds
// the whole batch) and every job of its group in arrival order, its own
// first. Followers get nil and wait on job.done.
//
// A free slot is taken at once and the job runs alone. Otherwise the job
// joins the key's open group, or opens one and waits up to wait for a slot;
// the group closes the moment the wait ends, so it is open only while its
// leader is blocked. A full group stays with its leader and the next
// request opens a fresh one behind it (slot waiters are served in order).
func (b *batcher) submit(t *Tenant, key planKey, job *batchJob, wait time.Duration) (jobs []*batchJob, sess *dml.Session, err error) {
	sess, err = t.acquire(0, false)
	if err != ErrTenantBusy || wait <= 0 {
		return []*batchJob{job}, sess, err
	}
	b.mu.Lock()
	if g, ok := b.groups[key]; ok && len(g.jobs) < maxBatch {
		g.jobs = append(g.jobs, job)
		b.mu.Unlock()
		return nil, nil, nil
	}
	g := &batchGroup{jobs: []*batchJob{job}}
	b.groups[key] = g
	b.mu.Unlock()

	sess, err = t.acquire(wait, false)

	b.mu.Lock()
	if b.groups[key] == g {
		delete(b.groups, key)
	}
	jobs = g.jobs
	b.mu.Unlock()
	return jobs, sess, err
}
