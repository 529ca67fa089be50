package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/par"
)

func startServer(t *testing.T, e *Engine, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", e, opts...)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func postRun(t *testing.T, srv *Server, req *RunRequest) (*http.Response, *RunResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+srv.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, &rr
}

// TestServerRunEndToEnd: inline data in, matrix and scalar outputs back.
func TestServerRunEndToEnd(t *testing.T) {
	srv := startServer(t, NewEngine())
	resp, rr := postRun(t, srv, &RunRequest{
		Tenant: "t1",
		Script: "Y = X %*% X\ns = sum(X)",
		Inputs: map[string]InputSpec{
			"X": {Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}},
		},
		Outputs: []string{"Y", "s"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := []float64{7, 10, 15, 22}
	y := rr.Outputs["Y"]
	if y.Rows != 2 || y.Cols != 2 {
		t.Fatalf("Y is %dx%d", y.Rows, y.Cols)
	}
	for i, v := range want {
		if math.Abs(y.Data[i]-v) > 1e-12 {
			t.Errorf("Y[%d] = %g, want %g", i, y.Data[i], v)
		}
	}
	s := rr.Outputs["s"]
	if s.Rows != 1 || s.Cols != 1 || math.Abs(s.Data[0]-10) > 1e-12 {
		t.Errorf("s = %+v, want scalar 10", s)
	}
}

// TestServerScriptError: script failures surface as 400 with a message.
func TestServerScriptError(t *testing.T) {
	srv := startServer(t, NewEngine())
	resp, _ := postRun(t, srv, &RunRequest{Script: "Y = Z %*% Z"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestServerShedsOverBudget: live pooled bytes over the engine budget turn
// /v1/run away with 429 + Retry-After until memory comes back.
func TestServerShedsOverBudget(t *testing.T) {
	e := NewEngine(WithMemoryBudget(64 << 10))
	srv := startServer(t, e)
	req := &RunRequest{
		Tenant:  "t1",
		Script:  "s = sum(X)",
		Inputs:  map[string]InputSpec{"X": {Rows: 8, Cols: 8, Rand: &RandSpec{Sparsity: 1, Lo: -1, Hi: 1, Seed: 1}}},
		Outputs: []string{"s"},
	}
	// Pin pooled memory past the budget: 16 K floats = 128 KiB > 64 KiB.
	pinned := e.alloc.Get(16 << 10)
	resp, _ := postRun(t, srv, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d under memory pressure, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e.Shed() == 0 {
		t.Error("shed not counted")
	}
	e.alloc.Put(pinned)
	resp, _ = postRun(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after memory recovered, want 200", resp.StatusCode)
	}
}

// TestServerShedsAtSessionQuota: a tenant at its concurrency quota gets
// 429 after the queue wait, not an oversubscribed session.
func TestServerShedsAtSessionQuota(t *testing.T) {
	e := NewEngine(WithTenantQuota(TenantQuota{MaxSessions: 1}))
	srv := startServer(t, e, WithQueueWait(5*time.Millisecond))
	tn := e.Tenant("t1")
	held, err := tn.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := postRun(t, srv, &RunRequest{Tenant: "t1", Script: "x = 1 + 1"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with quota exhausted, want 429", resp.StatusCode)
	}
	tn.Release(held)
	resp, _ = postRun(t, srv, &RunRequest{Tenant: "t1", Script: "x = 1 + 1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after release, want 200", resp.StatusCode)
	}
}

// TestServerGracefulDrain: Close must let an in-flight request finish
// instead of cutting its connection.
func TestServerGracefulDrain(t *testing.T) {
	e := NewEngine()
	srv := startServer(t, e)
	slow := &RunRequest{
		Tenant: "t1",
		Script: "acc = 0\nfor (i in 1:40) {\n acc = acc + sum(X %*% X)\n}",
		Inputs: map[string]InputSpec{
			"X": {Rows: 200, Cols: 200, Rand: &RandSpec{Sparsity: 1, Lo: -1, Hi: 1, Seed: 4}},
		},
		Outputs: []string{"acc"},
	}
	type outcome struct {
		status int
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		body, _ := json.Marshal(slow)
		resp, err := http.Post("http://"+srv.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		resp.Body.Close()
		done <- outcome{status: resp.StatusCode}
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", o.err)
		}
		if o.status != http.StatusOK {
			t.Fatalf("in-flight request got %d during drain, want 200", o.status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
}

// TestServerTenantsEndpoint: /v1/tenants exposes per-tenant accounting.
func TestServerTenantsEndpoint(t *testing.T) {
	e := NewEngine()
	srv := startServer(t, e)
	for i := 0; i < 3; i++ {
		resp, _ := postRun(t, srv, &RunRequest{Tenant: "alpha", Script: "x = 1 + 1"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/tenants", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]TenantStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["alpha"].Requests != 3 {
		t.Errorf("alpha served %d requests, want 3", stats["alpha"].Requests)
	}
}

// TestServerRequestID: the response echoes a client X-Request-ID in both
// the header and the body, and generates one when the client sends none.
func TestServerRequestID(t *testing.T) {
	srv := startServer(t, NewEngine())
	body, _ := json.Marshal(&RunRequest{Script: "x = 1 + 1"})
	req, _ := http.NewRequest(http.MethodPost, "http://"+srv.Addr()+"/v1/run", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "client-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-7" {
		t.Errorf("X-Request-ID header = %q, want client-7", got)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.RequestID != "client-7" {
		t.Errorf("RequestID = %q, want client-7", rr.RequestID)
	}

	resp2, rr2 := postRun(t, srv, &RunRequest{Script: "x = 1 + 1"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if rr2.RequestID == "" || resp2.Header.Get("X-Request-ID") == "" {
		t.Error("no request ID generated")
	}
	if rr2.RequestID != resp2.Header.Get("X-Request-ID") {
		t.Errorf("body ID %q != header ID %q", rr2.RequestID, resp2.Header.Get("X-Request-ID"))
	}
}

// TestServerDebugRequests: the flight recorder retains completed requests
// and /debug/requests/{id} returns a sampled record's full span tree down
// to per-operator execute spans.
func TestServerDebugRequests(t *testing.T) {
	srv := startServer(t, NewEngine(),
		WithFlightRecorder(16, 0)) // slow=0: sample all
	resp, rr := postRun(t, srv, &RunRequest{
		Tenant:  "dbg",
		Script:  "Y = X %*% X",
		Inputs:  map[string]InputSpec{"X": {Rows: 16, Cols: 16, Rand: &RandSpec{Sparsity: 1, Lo: 0, Hi: 1, Seed: 9}}},
		Outputs: []string{"Y"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// List view: record present, newest first, spans stripped.
	lresp, err := http.Get("http://" + srv.Addr() + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Recorded int64            `json:"recorded"`
		Sampled  int64            `json:"sampled"`
		Requests []map[string]any `json:"requests"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Recorded != 1 || list.Sampled != 1 || len(list.Requests) != 1 {
		t.Fatalf("list = %+v", list)
	}
	if _, leaked := list.Requests[0]["spans"]; leaked {
		t.Error("list view leaked span trees")
	}

	// Single record: full span tree, request -> run -> execute -> operator.
	gresp, err := http.Get("http://" + srv.Addr() + "/debug/requests/" + rr.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	var rec struct {
		ID      string `json:"id"`
		Tenant  string `json:"tenant"`
		PlanKey string `json:"plan_key"`
		Status  int    `json:"status"`
		Sampled bool   `json:"sampled"`
		Spans   []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != rr.RequestID || rec.Tenant != "dbg" || rec.Status != 200 || !rec.Sampled {
		t.Fatalf("record = %+v", rec)
	}
	if rec.PlanKey == "" {
		t.Error("record has no plan key")
	}
	names := map[string]bool{}
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"request", "run", "compile", "optimize", "execute"} {
		if !names[want] {
			t.Errorf("span tree missing %q (have %v)", want, names)
		}
	}
	// At least one per-operator span beyond the fixed phases.
	if len(rec.Spans) <= 5 {
		t.Errorf("span tree has no per-operator spans: %d spans", len(rec.Spans))
	}

	// Unknown ID is a 404.
	nresp, err := http.Get("http://" + srv.Addr() + "/debug/requests/nope")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ID: status %d, want 404", nresp.StatusCode)
	}
}

// TestServerHealthzDrain: /healthz is text/plain 200 while serving and 503
// once a drain starts.
func TestServerHealthzDrain(t *testing.T) {
	srv := startServer(t, NewEngine())
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("healthz Content-Type = %q", ct)
	}
	srv.draining.Store(true)
	resp, err = http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if body.String() != "draining\n" {
		t.Errorf("draining body = %q", body.String())
	}
}

// TestServerTenantQuantiles: after traffic, /v1/tenants reports non-zero
// latency quantiles in milliseconds, ordered p50 <= p95 <= p99.
func TestServerTenantQuantiles(t *testing.T) {
	e := NewEngine()
	srv := startServer(t, e)
	for i := 0; i < 5; i++ {
		resp, _ := postRun(t, srv, &RunRequest{
			Tenant: "q",
			Script: "s = sum(X %*% X)",
			Inputs: map[string]InputSpec{
				"X": {Rows: 64, Cols: 64, Rand: &RandSpec{Sparsity: 1, Lo: 0, Hi: 1, Seed: int64(i)}},
			},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + srv.Addr() + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]TenantStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	st := stats["q"]
	if st.P50MS <= 0 || st.P95MS <= 0 || st.P99MS <= 0 {
		t.Fatalf("zero quantiles after traffic: %+v", st)
	}
	if st.P50MS > st.P95MS || st.P95MS > st.P99MS {
		t.Errorf("quantiles not ordered: p50=%g p95=%g p99=%g", st.P50MS, st.P95MS, st.P99MS)
	}
}

// TestServerMetricsNegotiation: /metrics is a JSON snapshot by default and
// Prometheus text exposition when Accept asks for text/plain.
func TestServerMetricsNegotiation(t *testing.T) {
	e := NewEngine()
	srv := startServer(t, e)
	resp, _ := postRun(t, srv, &RunRequest{Tenant: "m", Script: "x = 1 + 1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	jresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default /metrics Content-Type = %q", ct)
	}
	var snap struct {
		Counters map[string]int64   `json:"Counters"`
		Gauges   map[string]float64 `json:"Gauges"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.requests"] != 1 {
		t.Errorf("serve.requests = %d, want 1", snap.Counters["serve.requests"])
	}
	if _, ok := snap.Counters[`serve.tenant.requests{tenant="m"}`]; !ok {
		t.Error("per-tenant counter missing from JSON snapshot")
	}

	req, _ := http.NewRequest(http.MethodGet, "http://"+srv.Addr()+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(presp.Body)
	text := body.String()
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom /metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE serve_requests counter",
		"serve_requests 1",
		`serve_tenant_requests{tenant="m"} 1`,
		"# TYPE serve_request_total_seconds histogram",
		`serve_request_total_seconds_bucket{le="+Inf"} 1`,
		"serve_request_total_seconds_count 1",
		"# TYPE pool_gets counter",
		"# TYPE plancache_hits counter",
		"# TYPE par_workers gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestServerSLOBurn: requests slower than the engine SLO target burn the
// tenant's SLO counter.
func TestServerSLOBurn(t *testing.T) {
	e := NewEngine(WithSLOTarget(time.Nanosecond)) // everything burns
	srv := startServer(t, e)
	for i := 0; i < 3; i++ {
		resp, _ := postRun(t, srv, &RunRequest{Tenant: "slo", Script: "x = 1 + 1"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
	}
	if burn := e.Tenant("slo").Stats().SLOBurn; burn != 3 {
		t.Errorf("SLO burn = %d, want 3", burn)
	}
	snap := e.Metrics()
	if got := snap.Counter(`serve.slo.burn{tenant="slo"}`); got != 3 {
		t.Errorf("serve.slo.burn metric = %d, want 3", got)
	}
	// No target: no burn.
	e2 := NewEngine()
	srv2 := startServer(t, e2)
	resp, _ := postRun(t, srv2, &RunRequest{Tenant: "slo", Script: "x = 1 + 1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if burn := e2.Tenant("slo").Stats().SLOBurn; burn != 0 {
		t.Errorf("SLO burn without target = %d, want 0", burn)
	}
}

// TestServerShedRecorded: shed requests land in the flight recorder as
// sampled error records.
func TestServerShedRecorded(t *testing.T) {
	e := NewEngine(WithTenantQuota(TenantQuota{MaxSessions: 1}))
	srv := startServer(t, e, WithQueueWait(time.Millisecond))
	tn := e.Tenant("t1")
	held, err := tn.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := postRun(t, srv, &RunRequest{Tenant: "t1", Script: "x = 1 + 1"})
	tn.Release(held)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")
	rec, ok := srv.FlightRecorder().Get(rid)
	if !ok {
		t.Fatalf("shed request %q not in flight recorder", rid)
	}
	if rec.Status != http.StatusTooManyRequests || rec.Error == "" || !rec.Sampled {
		t.Errorf("shed record = %+v", rec)
	}
}

// The batching tests below need no timer to form a batch: requests
// coalesce exactly while their tenant is saturated, so each test holds the
// one session slot of a MaxSessions-1 tenant, enrolls requests one at a time
// (enroll returns once the server has the request in its plan key's open
// group, which fixes the arrival order), and then releases the slot.

// sumReq is a one-block scoring request; scripts differing in scale resolve
// to different plan keys.
func sumReq(tenant string, scale int, seed int64) *RunRequest {
	return &RunRequest{
		Tenant: tenant,
		Script: fmt.Sprintf("s = sum(X * %d)", scale),
		Inputs: map[string]InputSpec{
			"X": {Rows: 32, Cols: 8, Rand: &RandSpec{Sparsity: 1, Lo: 0, Hi: 1, Seed: seed}},
		},
		Outputs: []string{"s"},
	}
}

// reply is what one client saw of one request.
type reply struct {
	id     string
	status int
	rr     RunResponse
	err    error
}

// post sends req under the given request ID without touching testing.T, so
// it is safe on client goroutines.
func post(srv *Server, id string, req *RunRequest) reply {
	body, _ := json.Marshal(req)
	hr, _ := http.NewRequest(http.MethodPost, "http://"+srv.Addr()+"/v1/run", bytes.NewReader(body))
	hr.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return reply{id: id, err: err}
	}
	defer resp.Body.Close()
	r := reply{id: id, status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		r.err = json.NewDecoder(resp.Body).Decode(&r.rr)
	}
	return r
}

// openGroupLen reports how many jobs the open group of req's plan key holds.
func openGroupLen(srv *Server, req *RunRequest) int {
	srv.batch.mu.Lock()
	defer srv.batch.mu.Unlock()
	if g, ok := srv.batch.groups[keyFor(req.Tenant, req.Script, req.Inputs)]; ok {
		return len(g.jobs)
	}
	return 0
}

// enroll posts req on its own goroutine and returns once it sits at
// position pos (1-based) of its key's open group; the reply goes to out.
func enroll(t *testing.T, srv *Server, id string, req *RunRequest, pos int, out chan<- reply) {
	t.Helper()
	go func() { out <- post(srv, id, req) }()
	for deadline := time.Now().Add(30 * time.Second); openGroupLen(srv, req) != pos; {
		if time.Now().After(deadline) {
			t.Fatalf("request %s never joined its group at position %d", id, pos)
		}
		runtime.Gosched()
	}
}

// collect gathers n replies keyed by request ID.
func collect(t *testing.T, out <-chan reply, n int) map[string]reply {
	t.Helper()
	got := map[string]reply{}
	for i := 0; i < n; i++ {
		r := <-out
		if r.err != nil {
			t.Fatalf("request %s: %v", r.id, r.err)
		}
		got[r.id] = r
	}
	return got
}

// executionOrder lists the request IDs with the given prefix in the order
// the server completed them (the flight recorder lists newest first).
func executionOrder(srv *Server, prefix string) []string {
	var ids []string
	for _, rec := range srv.FlightRecorder().Records() {
		if strings.HasPrefix(rec.ID, prefix) {
			ids = append([]string{rec.ID}, ids...)
		}
	}
	return ids
}

// saturatedServer starts a server whose tenants have one session slot and
// returns tenant "t1" with that slot held.
func saturatedServer(t *testing.T, opts ...ServerOption) (*Engine, *Server, *Tenant, func()) {
	t.Helper()
	e := NewEngine(WithTenantQuota(TenantQuota{MaxSessions: 1}))
	srv := startServer(t, e, append([]ServerOption{WithQueueWait(time.Minute)}, opts...)...)
	tn := e.Tenant("t1")
	held, err := tn.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	return e, srv, tn, func() { tn.Release(held) }
}

// TestBatchSaturatedTenantCoalesces: N same-plan requests arriving while
// the tenant is saturated run as exactly one batch on one session slot and
// one block-plan cache entry, in arrival order; another plan key batches on
// its own; every request counts once.
func TestBatchSaturatedTenantCoalesces(t *testing.T) {
	e, srv, tn, release := saturatedServer(t)
	const n, m = 5, 2
	out := make(chan reply, n+m)
	a, b := 0, 0
	for _, k := range "abaabaa" { // interleaved arrivals
		if k == 'a' {
			a++
			enroll(t, srv, fmt.Sprintf("a-%d", a), sumReq("t1", 2, int64(a)), a, out)
		} else {
			b++
			enroll(t, srv, fmt.Sprintf("b-%d", b), sumReq("t1", 3, int64(b)), b, out)
		}
	}
	release()
	got := collect(t, out, n+m)
	for id, r := range got {
		want, leader := n, id == "a-1"
		if id[0] == 'b' {
			want, leader = m, id == "b-1"
		}
		if r.status != http.StatusOK || r.rr.Batch != want || r.rr.Leader != leader {
			t.Errorf("%s: status %d batch %d leader %v, want 200 batch %d leader %v",
				id, r.status, r.rr.Batch, r.rr.Leader, want, leader)
		}
		if s := r.rr.Outputs["s"]; len(s.Data) != 1 || s.Data[0] <= 0 {
			t.Errorf("%s: s = %+v, want a positive scalar", id, s)
		}
	}
	if order := strings.Join(executionOrder(srv, "a-"), " "); order != "a-1 a-2 a-3 a-4 a-5" {
		t.Errorf("batch executed as %q, want arrival order", order)
	}
	if got := e.Metrics().Counter(`serve.tenant.batched{tenant="t1"}`); got != n-1+m-1 {
		t.Errorf("serve.tenant.batched = %d, want %d followers", got, n-1+m-1)
	}
	st := tn.Stats()
	if st.Requests != n+m+1 || st.Shed != 0 || st.ActiveSessions != 0 { // +1: the slot holder's Acquire
		t.Errorf("requests %d shed %d active %d, want %d 0 0", st.Requests, st.Shed, st.ActiveSessions, n+m+1)
	}
	if len(srv.batch.groups) != 0 {
		t.Errorf("%d groups still open", len(srv.batch.groups))
	}
	// One slot, one session, one optimized block per plan key.
	if len(tn.idle) != 1 {
		t.Fatalf("tenant holds %d sessions, want 1", len(tn.idle))
	}
	snap := tn.idle[0].Metrics()
	if snap.Counter("block.optimized") != 2 || snap.Counter("block.reused") != n-1+m-1 {
		t.Errorf("blocks optimized %d reused %d, want 2 and %d",
			snap.Counter("block.optimized"), snap.Counter("block.reused"), n-1+m-1)
	}
}

// TestBatchSplitsAtMaxBatch: a full group stays with its leader and the
// next arrival opens a second one behind it.
func TestBatchSplitsAtMaxBatch(t *testing.T) {
	_, srv, _, release := saturatedServer(t)
	const n = maxBatch + 3
	out := make(chan reply, n)
	for i := 0; i < n; i++ {
		enroll(t, srv, fmt.Sprintf("r-%02d", i), sumReq("t1", 2, 1), i%maxBatch+1, out)
	}
	release()
	sizes, leaders := map[int]int{}, 0
	for id, r := range collect(t, out, n) {
		if r.status != http.StatusOK {
			t.Fatalf("%s: status %d", id, r.status)
		}
		sizes[r.rr.Batch]++
		if r.rr.Leader {
			leaders++
		}
	}
	if sizes[maxBatch] != maxBatch || sizes[3] != 3 || leaders != 2 {
		t.Errorf("batch sizes %v with %d leaders, want %d+3 with 2", sizes, leaders, maxBatch)
	}
	order := executionOrder(srv, "r-")
	if !sort.StringsAreSorted(order) || len(order) != n {
		t.Errorf("executed %v, want all %d in arrival order", order, n)
	}
}

// TestBatchShedsWholeGroup: when the leader's queue wait expires, every job
// of its group is shed with 429 and flight-recorded.
func TestBatchShedsWholeGroup(t *testing.T) {
	e, srv, tn, release := saturatedServer(t, WithQueueWait(500*time.Millisecond))
	defer release()
	const n = 3
	out := make(chan reply, n)
	for i := 1; i <= n; i++ {
		enroll(t, srv, fmt.Sprintf("s-%d", i), sumReq("t1", 2, 1), i, out)
	}
	for id, r := range collect(t, out, n) {
		if r.status != http.StatusTooManyRequests {
			t.Errorf("%s: status %d, want 429", id, r.status)
		}
		rec, ok := srv.FlightRecorder().Get(id)
		if !ok || rec.Status != http.StatusTooManyRequests || rec.Batch != n || rec.Leader != (id == "s-1") {
			t.Errorf("%s: flight record %+v (found %v)", id, rec, ok)
		}
	}
	if st := tn.Stats(); st.Shed != n || e.Shed() != n || st.Batched != 0 {
		t.Errorf("tenant shed %d engine shed %d batched %d, want %d %d 0", st.Shed, e.Shed(), st.Batched, n, n)
	}
}

// TestBatchUnsaturatedTenantRunsAlone: with a free slot per client nothing
// waits and nothing coalesces, however alike the requests are.
func TestBatchUnsaturatedTenantRunsAlone(t *testing.T) {
	e := NewEngine(WithTenantQuota(TenantQuota{MaxSessions: 8}))
	srv := startServer(t, e)
	const clients, rounds = 8, 10
	out := make(chan reply, clients*rounds)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < rounds; i++ {
				out <- post(srv, fmt.Sprintf("u-%d-%d", c, i), sumReq("t1", 2, 1))
			}
		}(c)
	}
	for id, r := range collect(t, out, clients*rounds) {
		if r.status != http.StatusOK || r.rr.Batch != 1 || !r.rr.Leader {
			t.Errorf("%s: status %d batch %d leader %v, want 200 1 true", id, r.status, r.rr.Batch, r.rr.Leader)
		}
	}
	if st := e.Tenant("t1").Stats(); st.Batched != 0 || st.Requests != clients*rounds {
		t.Errorf("batched %d requests %d, want 0 %d", st.Batched, st.Requests, clients*rounds)
	}
}

// TestBatchHammer: 16 clients over 4 plan keys on a two-slot tenant — every
// request is answered correctly and counted once, whether it led, followed
// or ran alone (run under -race).
func TestBatchHammer(t *testing.T) {
	e := NewEngine(WithTenantQuota(TenantQuota{MaxSessions: 2}))
	srv := startServer(t, e, WithQueueWait(time.Minute))
	const clients, keys, rounds = 16, 4, 12
	x := InputSpec{Rows: 4, Cols: 4, Data: make([]float64, 16)}
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := make(chan reply, clients*rounds)
	for c := 0; c < clients; c++ {
		go func(c int) {
			scale := 1 + c%keys
			req := &RunRequest{Tenant: "t1", Script: fmt.Sprintf("s = sum(X * %d)", scale),
				Inputs: map[string]InputSpec{"X": x}, Outputs: []string{"s"}}
			for i := 0; i < rounds; i++ {
				out <- post(srv, fmt.Sprintf("h-%d-%d", c, i), req)
			}
		}(c)
	}
	var followers int64
	for id, r := range collect(t, out, clients*rounds) {
		var c, i int
		fmt.Sscanf(id, "h-%d-%d", &c, &i)
		want := float64(16 * (1 + c%keys))
		if r.status != http.StatusOK || r.rr.Outputs["s"].Data[0] != want {
			t.Fatalf("%s: status %d s %v, want 200 and %g", id, r.status, r.rr.Outputs["s"].Data, want)
		}
		if !r.rr.Leader {
			followers++
		}
	}
	st := e.Tenant("t1").Stats()
	if st.Requests != clients*rounds || st.Shed != 0 || st.Batched != followers || st.ActiveSessions != 0 {
		t.Errorf("requests %d shed %d batched %d active %d, want %d 0 %d 0",
			st.Requests, st.Shed, st.Batched, st.ActiveSessions, clients*rounds, followers)
	}
	if len(srv.batch.groups) != 0 {
		t.Errorf("%d groups still open", len(srv.batch.groups))
	}
}

// panicOnce is a distributed backend whose first Invalidate panics — a
// stand-in for a bug in an operator, kernel or rewrite. With a pool it
// panics inside a parallel region, in a chunk that a pool worker claimed
// (the caller's own chunks wait for that one), which is where a kernel's
// bounds check fires when a helper took the chunk.
type panicOnce struct {
	fired atomic.Bool
	pool  *par.Pool
}

func (p *panicOnce) ExecHop(*hop.Hop, []*matrix.Matrix, obs.Span) (*matrix.Matrix, bool) {
	return nil, false
}

func (p *panicOnce) Invalidate(*matrix.Matrix) {
	if !p.fired.CompareAndSwap(false, true) {
		return
	}
	if p.pool == nil {
		panic("kernel bug")
	}
	helperIn := make(chan struct{})
	var once sync.Once
	p.pool.Fold(4096, 16, func(w, _, lo, hi int) {
		if w != 0 { // 0 is the region's caller
			once.Do(func() { close(helperIn) })
			panic("kernel bug")
		}
		<-helperIn
	})
}

// TestServerRecoversFromPanic: a panic inside one job, on the request's
// goroutine or on a worker of a parallel region it started, fails that job
// with a 500 and a flight record carrying the panic value and the stack it
// was raised on, the rest of its batch and later requests succeed, and the
// session it ran on is dropped while its slot is released.
func TestServerRecoversFromPanic(t *testing.T) {
	t.Run("request goroutine", func(t *testing.T) { recoversFromPanic(t, nil, "panicOnce") })
	t.Run("par helper", func(t *testing.T) { recoversFromPanic(t, par.NewPool(4), "(*region).help") })
}

func recoversFromPanic(t *testing.T, pool *par.Pool, frame string) {
	e, srv, tn, release := saturatedServer(t)
	// Park the faulty session where the batch leader will pop it (the idle
	// list holds MaxSessions = 1, so the released holder is not parked).
	bad := tn.newSession()
	bad.Dist = &panicOnce{pool: pool}
	tn.idle = append(tn.idle, bad)
	req := sumReq("t1", 2, 1)
	req.Script = "s = sum(X %*% t(X))" // the product is a dead intermediate: Invalidate runs
	out := make(chan reply, 2)
	enroll(t, srv, "p-1", req, 1, out)
	enroll(t, srv, "p-2", req, 2, out)
	release()
	got := collect(t, out, 2)
	if got["p-1"].status != http.StatusInternalServerError {
		t.Errorf("panicking request: status %d, want 500", got["p-1"].status)
	}
	if r := got["p-2"]; r.status != http.StatusOK || r.rr.Batch != 2 || r.rr.Outputs["s"].Data[0] <= 0 {
		t.Errorf("request batched behind the panic: status %d %+v", r.status, r.rr)
	}
	rec, ok := srv.FlightRecorder().Get("p-1")
	if !ok || rec.Status != http.StatusInternalServerError || !rec.Sampled ||
		!strings.Contains(rec.Error, "kernel bug") || !strings.Contains(rec.Error, frame) {
		t.Errorf("flight record of the panic: %+v (found %v)", rec, ok)
	}
	if r := post(srv, "p-3", req); r.status != http.StatusOK {
		t.Errorf("request after the panic: status %d err %v", r.status, r.err)
	}
	if tn.Active() != 0 {
		t.Errorf("active sessions = %d after the panic, want 0", tn.Active())
	}
	for _, s := range tn.idle {
		if s == bad {
			t.Error("the panicking session went back to the idle list")
		}
	}
	if e.Requests() != 4 { // holder + three requests, the failed one included
		t.Errorf("engine requests = %d, want 4", e.Requests())
	}
}

// TestRequestInputsSampledPerRequest pins the carve-out of ISSUE 18 (c) at
// the place it is for: runJob writes a request's inputs into Env directly,
// and the compression pass samples each of them at its first read, request
// after request on the same pooled session — also when the script's plan has
// no operator that could use a compressed form — while what the script
// itself produces from them is left to the plan and never sampled here.
func TestRequestInputsSampledPerRequest(t *testing.T) {
	sess := dml.NewSession(codegen.DefaultConfig())
	data := make([]float64, 128*64) // exactly the interpreter's 64 KiB compression floor, as serve_mix sends
	for i := range data {
		data[i] = float64(i % 4)
	}
	req := &RunRequest{
		Script:  "T = X * 2\nG = t(T) %*% X\ns = sum(G)",
		Inputs:  map[string]InputSpec{"X": {Rows: 128, Cols: 64, Data: data}},
		Outputs: []string{"s"},
	}
	for i := 1; i <= 3; i++ {
		if _, err := runJob(context.Background(), sess, req, obs.Span{}); err != nil {
			t.Fatal(err)
		}
		sess.Reset()
		if got := sess.Obs.Counter("compress.auto.sampled"); got != int64(i) {
			t.Fatalf("after %d requests the estimator ran %d times, want once per request input", i, got)
		}
	}
}
