package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/serve"
)

// serve_mix: an in-process server at its defaults, two closed-loop clients
// (callers that wait for a reply) on two keep-alive connections, four
// tenants, and a request schedule fixed by the seed: hotShare of the
// requests repeat one of four scoring scripts per tenant (plan-cache
// hits), the rest are scripts no one has sent before (parse, HOP
// construction, rewrites, plan search, operator compilation, plan-cache
// insert).
const (
	serveClients   = 2
	serveTenants   = 4
	hotShare       = 0.9
	segmentReqs    = 1000 // requests per segment at scale 1: 10 beyond a segment's p99
	serveMinPasses = 10   // at least 10000 timed requests
	serveSetups    = 9    // a set-up takes 60 ms; setup_s is the median
	inRows, inCols = 128, 64
)

// serveReq is one scheduled request.
type serveReq struct {
	kind string // hot.dense, hot.cells, hot.sparse, hot.compressed or cold
	req  *serve.RunRequest
	body []byte // req as JSON, marshalled before the clock starts
	// ref is what the response must equal; cold requests get theirs after
	// the timed part (checkCold).
	ref map[string]mat
}

// hotKinds are the four scoring scripts every tenant repeats, with their
// tags. hot.compressed sends its input inline: piecewise-constant integer
// codes, which the server's sessions auto-compress on every request.
var hotKinds = []struct {
	kind, tag, script string
	outputs           []string
}{
	{"hot.dense", "dense", "P = sigmoid(X %*% W)\ns = sum(P)\nr = rowSums(P)", []string{"s", "r"}},
	{"hot.cells", "dense", "s = sum(X * Y * Z)\nm = colSums(X * Y)", []string{"s", "m"}},
	{"hot.sparse", "sparse", "y = X %*% w\ns = sum(y * y)", []string{"y", "s"}},
	{"hot.compressed", "compressed", "s = sum(X ^ 2)\nc = colSums(X)", []string{"s", "c"}},
}

func randIn(rows, cols int, sparsity float64, seed int64) serve.InputSpec {
	return serve.InputSpec{Rows: rows, Cols: cols, Rand: &serve.RandSpec{Sparsity: sparsity, Lo: -1, Hi: 1, Seed: seed}}
}

// codesIn is an inline input of small integer codes in long runs.
func codesIn(rows, cols int, seed int64) serve.InputSpec {
	data := make([]float64, rows*cols)
	for j := 0; j < cols; j++ {
		runs := 2 + int((seed+int64(j))%4)
		for i := 0; i < rows; i++ {
			data[i*cols+j] = float64((i*runs/rows + j) % 7)
		}
	}
	return serve.InputSpec{Rows: rows, Cols: cols, Data: data}
}

func tenantName(t int) string { return fmt.Sprintf("tenant%d", t) }

// hotRequest builds scoring request k of tenant t; inputs differ per tenant.
func hotRequest(t, k int, seed int64) *serveReq {
	h := hotKinds[k]
	s := seed*1000 + int64(t)*10
	var in map[string]serve.InputSpec
	switch h.kind {
	case "hot.dense":
		in = map[string]serve.InputSpec{"X": randIn(inRows, inCols, 1, s+1), "W": randIn(inCols, 8, 1, s+2)}
	case "hot.cells":
		in = map[string]serve.InputSpec{"X": randIn(inRows, inCols, 1, s+3), "Y": randIn(inRows, inCols, 1, s+4), "Z": randIn(inRows, inCols, 1, s+5)}
	case "hot.sparse":
		in = map[string]serve.InputSpec{"X": randIn(inRows, inCols, 0.05, s+6), "w": randIn(inCols, 1, 1, s+7)}
	case "hot.compressed":
		in = map[string]serve.InputSpec{"X": codesIn(inRows, inCols, s+8)}
	}
	return newServeReq(h.kind, &serve.RunRequest{Tenant: tenantName(t), Script: h.script, Inputs: in, Outputs: h.outputs})
}

func newServeReq(kind string, req *serve.RunRequest) *serveReq {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a RunRequest of plain numbers always marshals
	}
	return &serveReq{kind: kind, req: req, body: body}
}

// coldGen emits scripts the server has not seen: 4-8 statements drawn from
// a small grammar over X (128x64), W (64x8) and v (64x1), every
// intermediate bounded so no output overflows.
type coldGen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newColdGen(seed int64) *coldGen {
	return &coldGen{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

type sym struct {
	name       string
	rows, cols int
}

func (g *coldGen) script() string {
	for {
		s := g.draw()
		if !g.seen[s] {
			g.seen[s] = true
			return s
		}
	}
}

func (g *coldGen) draw() string {
	syms := []sym{{"X", inRows, inCols}, {"W", inCols, 8}, {"v", inCols, 1}}
	var mats []sym // generated matrices, candidates for the outputs
	var b strings.Builder
	lit := func() string { return fmt.Sprintf("%g", float64(1+g.rng.Intn(40))/8) }
	pick := func() sym { return syms[g.rng.Intn(len(syms))] }
	sameShape := func(a sym) sym {
		var c []sym
		for _, s := range syms {
			if s.rows == a.rows && s.cols == a.cols {
				c = append(c, s)
			}
		}
		return c[g.rng.Intn(len(c))]
	}
	n := 4 + g.rng.Intn(5) - 2 // the two output statements come on top
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("T%d", i)
		a := pick()
		out := sym{name, a.rows, a.cols}
		var rhs string
		switch g.rng.Intn(7) {
		case 0:
			rhs = fmt.Sprintf("%s %s %s", a.name, []string{"+", "-", "*"}[g.rng.Intn(3)], sameShape(a).name)
		case 1:
			rhs = fmt.Sprintf("%s(%s)", []string{"sigmoid", "abs", "round"}[g.rng.Intn(3)], a.name)
		case 2:
			rhs = fmt.Sprintf("(%s * %s + %s) * %s", a.name, lit(), lit(), sameShape(a).name)
		case 3:
			rhs = fmt.Sprintf("(%s > %s) * %s", a.name, lit(), sameShape(a).name)
		case 4:
			rhs = fmt.Sprintf("exp(0 - abs(%s)) / %s", a.name, lit())
		case 5:
			// A product with whichever operand fits on the right.
			var c []sym
			for _, s := range syms {
				if s.rows == a.cols && s.cols <= inCols {
					c = append(c, s)
				}
			}
			if len(c) == 0 {
				rhs = fmt.Sprintf("sqrt(abs(%s))", a.name)
				break
			}
			r := c[g.rng.Intn(len(c))]
			rhs = fmt.Sprintf("sigmoid(%s %%*%% %s)", a.name, r.name)
			out.cols = r.cols
		case 6:
			rhs = fmt.Sprintf("%s / (1 + rowSums(abs(%s)))", a.name, a.name)
		}
		fmt.Fprintf(&b, "%s = %s\n", name, rhs)
		syms = append(syms, out)
		mats = append(mats, out)
	}
	last := mats[len(mats)-1]
	other := mats[g.rng.Intn(len(mats))]
	fmt.Fprintf(&b, "s = sum(%s)\n", last.name)
	if g.rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "r = colSums(%s)", other.name)
	} else {
		fmt.Fprintf(&b, "r = t(rowSums(%s))", other.name)
	}
	return b.String()
}

// coldRequest wraps a generated script as a request of tenant t.
func coldRequest(t int, script string, seed int64) *serveReq {
	s := seed*1000 + int64(t)*10
	in := map[string]serve.InputSpec{
		"X": randIn(inRows, inCols, 1, s+1), "W": randIn(inCols, 8, 1, s+2), "v": randIn(inCols, 1, 1, s+9),
	}
	return newServeReq("cold", &serve.RunRequest{Tenant: tenantName(t), Script: script, Inputs: in, Outputs: []string{"s", "r"}})
}

// schedule is the request sequence of a run, generated segment by segment
// from the seed alone.
type schedule struct {
	seed int64
	hot  [serveTenants][]*serveReq // the 16 repeating requests, with references
	cold *coldGen
	rng  *rand.Rand
	sum  uint64 // hash of the hot/cold sequence and the cold scripts so far (self-check)
}

// hotReferences computes what every hot request must return: a direct
// Session.Run of its script and inputs under ModeBase. References are not
// part of setup_s, so this runs once, before the timed set-ups.
func hotReferences(cfg config) (refs [serveTenants][]map[string]mat, err error) {
	for t := 0; t < serveTenants; t++ {
		for k, h := range hotKinds {
			ref, err := directRun(hotRequest(t, k, cfg.seed).req, cfg.optimizer(codegen.ModeBase))
			if err != nil {
				return refs, fmt.Errorf("reference of %s: %w", h.kind, err)
			}
			refs[t] = append(refs[t], ref)
		}
	}
	return refs, nil
}

func newSchedule(seed int64, refs [serveTenants][]map[string]mat) *schedule {
	s := &schedule{seed: seed, cold: newColdGen(seed*7 + 1), rng: rand.New(rand.NewSource(seed*7 + 2))}
	for t := 0; t < serveTenants; t++ {
		for k := range hotKinds {
			q := hotRequest(t, k, seed)
			q.ref = refs[t][k]
			s.hot[t] = append(s.hot[t], q)
		}
	}
	return s
}

// segment returns the next n requests.
func (s *schedule) segment(n int) []*serveReq {
	reqs := make([]*serveReq, n)
	for i := range reqs {
		t := s.rng.Intn(serveTenants)
		if s.rng.Float64() < hotShare {
			k := s.rng.Intn(len(hotKinds))
			reqs[i] = s.hot[t][k]
			s.sum = s.sum*31 + uint64(1+t*len(hotKinds)+k)
		} else {
			script := s.cold.script()
			reqs[i] = coldRequest(t, script, s.seed)
			h := fnv.New64a()
			h.Write([]byte(script))
			s.sum = s.sum*31 + h.Sum64()
		}
	}
	return reqs
}

// bindInputs builds the matrices a request's input specs describe, the way
// the server does.
func bindInputs(s *dml.Session, in map[string]serve.InputSpec) {
	for name, spec := range in {
		switch {
		case spec.Data != nil:
			s.Bind(name, matrix.NewDenseData(spec.Rows, spec.Cols, append([]float64(nil), spec.Data...)))
		case spec.Rand != nil:
			s.Bind(name, matrix.Rand(spec.Rows, spec.Cols, spec.Rand.Sparsity, spec.Rand.Lo, spec.Rand.Hi, spec.Rand.Seed))
		}
	}
}

// directSession runs a request's script on a fresh session of its own,
// bypassing the server.
func directSession(req *serve.RunRequest, cfg codegen.Config) (*dml.Session, error) {
	s := dml.NewSession(cfg)
	s.Out = io.Discard
	bindInputs(s, req.Inputs)
	return s, s.Run(req.Script)
}

// directRun returns the outputs of directSession: the reference a server
// response is compared with (under ModeBase it shares no generated
// operator with the server's Gen sessions).
func directRun(req *serve.RunRequest, cfg codegen.Config) (map[string]mat, error) {
	s, err := directSession(req, cfg)
	if err != nil {
		return nil, err
	}
	out := map[string]mat{}
	for _, name := range req.Outputs {
		m, err := s.Get(name)
		if err != nil {
			return nil, err
		}
		out[name] = copyMat(m)
	}
	return out, nil
}

// checkResponse compares a response's outputs with the reference.
func checkResponse(resp *serve.RunResponse, ref map[string]mat) error {
	got := map[string]mat{}
	for name, o := range resp.Outputs {
		got[name] = mat{o.Rows, o.Cols, o.Data}
	}
	return compareAll(got, ref, tolFused, 1)
}

// serveEnv is a running in-process server and its clients.
type serveEnv struct {
	eng     *serve.Engine
	srv     *serve.Server
	url     string
	clients [serveClients]*http.Client
}

func startServe() (*serveEnv, error) {
	e := &serveEnv{eng: serve.NewEngine()}
	srv, err := serve.NewServer("127.0.0.1:0", e.eng)
	if err != nil {
		return nil, err
	}
	e.srv, e.url = srv, "http://"+srv.Addr()+"/v1/run"
	for i := range e.clients {
		// One keep-alive connection per client. The timeout is above the
		// watchdog floor so a hang ends the run through the watchdog.
		e.clients[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   2 * wdFloor,
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	e.srv.Close()
	e.eng.Close()
}

// reqResult is what a client saw of one request.
type reqResult struct {
	req     *serveReq
	latency time.Duration
	resp    *serve.RunResponse
	err     error
}

// post sends one request and decodes the reply; the latency runs from
// before the send to after the decode.
func (e *serveEnv) post(c int, q *serveReq) reqResult {
	res := reqResult{req: q}
	t0 := time.Now()
	resp, err := e.clients[c].Post(e.url, "application/json", bytes.NewReader(q.body))
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		return res
	}
	var rr serve.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		res.err = err
		return res
	}
	res.latency, res.resp = time.Since(t0), &rr
	return res
}

// runSegment plays reqs through the server: client c sends requests c,
// c+2, ... one after the other. Hot responses are verified at once (outside
// the request's latency); cold ones keep their response for checkCold.
func (r *run) runSegment(e *serveEnv, reqs []*serveReq) (time.Duration, []reqResult) {
	results := make([]reqResult, len(reqs))
	segSpan := r.tr.begin(0, 0, 0, "bench.pass")
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += serveClients {
				q := reqs[i]
				sp := r.tr.begin(segSpan, r.nextOp(), c, "serve.post "+q.kind)
				r.wd.arm(c, q.kind, wdFloor)
				res := e.post(c, q)
				r.wd.disarm(c)
				r.tr.end(sp)
				if res.err == nil && q.ref != nil {
					res.err = checkResponse(res.resp, q.ref)
				}
				if res.err != nil || q.ref != nil {
					r.record(q.kind, res.err)
				}
				results[i] = res
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	r.tr.end(segSpan)
	return wall, results
}

// checkCold computes the reference of every cold request that got a
// response and compares, on serveClients goroutines.
func (r *run) checkCold(results []reqResult) {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(results); i += serveClients {
				res := &results[i]
				if res.req.ref != nil || res.err != nil {
					continue
				}
				ref, err := directRun(res.req.req, r.cfg.optimizer(codegen.ModeBase))
				if err == nil {
					err = checkResponse(res.resp, ref)
				}
				res.err = err
				r.record("cold", err)
			}
		}(c)
	}
	wg.Wait()
}

// serveTimes collects what the clients saw, by request kind.
type serveTimes struct {
	byKind                     map[string][]float64 // latency ms of verified requests
	all, queue, exec, overhead []float64            // ms
}

func collectServe(results []reqResult) *serveTimes {
	st := &serveTimes{byKind: map[string][]float64{}}
	for _, res := range results {
		if res.err != nil {
			continue
		}
		lat := ms(res.latency)
		st.byKind[res.req.kind] = append(st.byKind[res.req.kind], lat)
		st.all = append(st.all, lat)
		st.queue = append(st.queue, float64(res.resp.QueueNS)/1e6)
		st.exec = append(st.exec, float64(res.resp.ExecNS)/1e6)
		st.overhead = append(st.overhead, lat-float64(res.resp.ExecNS)/1e6)
	}
	return st
}

func (st *serveTimes) hot() []float64 {
	var hot []float64
	for _, h := range hotKinds {
		hot = append(hot, st.byKind[h.kind]...)
	}
	return hot
}

// layerValues reports the serve layer as the clients and the engine's
// public snapshots see it.
func (st *serveTimes) layerValues(l values, e *serveEnv) {
	hot := st.hot()
	l.set("serve.hot_p50_ms", median(hot), len(hot))
	l.set("serve.cold_p50_ms", median(st.byKind["cold"]), len(st.byKind["cold"]))
	l.set("serve.queue_p50_ms", median(st.queue), len(st.queue))
	l.set("serve.exec_p50_ms", median(st.exec), len(st.exec))
	l.set("serve.overhead_p50_ms", median(st.overhead), len(st.overhead))
	var batched int64
	for _, t := range e.eng.Tenants() {
		batched += t.Batched
	}
	l.set("serve.batched", float64(batched), len(st.all))
	l.set("serve.shed", float64(e.eng.Shed()), len(st.all))
}

// warmServe sends every hot request once and a few cold ones.
func (r *run) warmServe(e *serveEnv, s *schedule) error {
	var reqs []*serveReq
	for t := range s.hot {
		reqs = append(reqs, s.hot[t]...)
	}
	g := newColdGen(s.seed*7 + 3)
	for t := 0; t < serveTenants; t++ {
		reqs = append(reqs, coldRequest(t, g.script(), s.seed))
	}
	_, results := r.runSegment(e, reqs)
	r.checkCold(results)
	for _, res := range results {
		if res.err != nil {
			return fmt.Errorf("warm-up %s: %w", res.req.kind, res.err)
		}
	}
	return nil
}

// runServe runs serve_mix.
func (r *run) runServe() error {
	cfg := r.cfg
	refs, err := hotReferences(cfg)
	if err != nil {
		return err
	}
	var e *serveEnv
	var sched *schedule
	var setups []float64
	for i := 1; ; i++ {
		t0 := time.Now()
		sched = newSchedule(cfg.seed, refs)
		if e, err = startServe(); err != nil {
			return err
		}
		if err = r.warmServe(e, sched); err != nil {
			e.close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if cfg.trace || i >= serveSetups {
			break
		}
		e.close()
	}
	defer e.close()

	n := scaled(segmentReqs, cfg.scale, 40)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget = budget * 6 / 10
	}
	var segments [][]reqResult
	var passes []passStat
	var first []*serveReq
	var before, after procStats
	start := time.Now()
	for pass := 0; pass < serveMinPasses || time.Since(start) < budget; pass++ {
		reqs := sched.segment(n)
		if pass == 0 {
			first = reqs
			before = readProcStats()
		}
		ps := passStat{traced: cfg.trace && pass%2 == 1}
		r.tr.enable(ps.traced)
		wall, results := r.runSegment(e, reqs)
		ps.wall = wall.Seconds()
		passes = append(passes, ps)
		segments = append(segments, results)
		if pass == serveMinPasses-1 {
			after = readProcStats()
		}
	}
	r.tr.enable(cfg.trace)
	r.scheduleSum = sched.sum
	var all []reqResult
	for i, results := range segments {
		r.checkCold(results)
		ps := &passes[i]
		ps.byProg = map[string][]float64{}
		for _, res := range results {
			if res.err == nil {
				ps.verified++
				ps.byProg[res.req.kind] = append(ps.byProg[res.req.kind], res.latency.Seconds())
			}
		}
		all = append(all, results...)
	}
	// "hot" pools the four hot kinds: its median is the hot p50.
	sec := map[string]float64{}
	row := func(name string, kinds ...string) {
		sec[name] = timeQuantile(passes, 0.5, kinds...)
		r.rows = append(r.rows, programRow{name, "serve", kindTag(name), sec[name] * 1e3, sec[name] * 1e3, len(passes)})
	}
	row("hot", kindNames()...)
	for _, kind := range append(kindNames(), "cold") {
		row(kind, kind)
	}
	untraced, traced := split(passes)

	hotCold := geomean([]float64{sec["hot"] * 1e3, sec["cold"] * 1e3})
	if !cfg.trace {
		v := r.endToEnd
		runMetrics(v, setups, median(walls(passes)), len(passes))
		v.set("geomean_ms", hotCold, 2)
		return nil
	}

	l := r.perLayer
	sliceMetrics(l, r.rows, passes)
	lat := pooled(passes) // a traced run times ~13000 requests: 130 beyond the 99th percentile
	l.set("ops.p50_ms", median(lat)*1e3, len(lat))
	l.set("ops.median_ms", hotCold, 2)
	l.set("ops.tail_ms", quantile(lat, 0.99)*1e3, len(lat))
	collectServe(all).layerValues(l, e)
	procValues(l, before, after, serveMinPasses)
	traceOverhead(l, untraced, traced)
	programs, err := r.replayScripts(l, first)
	if err != nil {
		return err
	}
	genSec := map[string]float64{}
	for _, p := range programs {
		sec, err := p.runMode(codegen.ModeGen, 3)
		if err != nil {
			return err
		}
		genSec[p.name] = sec
	}
	if err := regret(r, l, programs, genSec); err != nil {
		return err
	}
	fs, fsBest, err := buildProbeFused(r)
	if err != nil {
		return err
	}
	return layerProbes(r, l, fs, fsBest)
}

func kindNames() []string {
	var names []string
	for _, h := range hotKinds {
		names = append(names, h.kind)
	}
	return names
}

func kindTag(kind string) string {
	for _, h := range hotKinds {
		if h.kind == kind {
			return h.tag
		}
	}
	return ""
}

// replayScripts runs every distinct script of the first segment on a
// direct Gen session, one after the other, and reads from those sessions
// the counts the server's own sessions do not expose (Session.Stats,
// Session.Metrics(), Session.CostAudit()); dml.Parse is timed on each
// script. It returns tenant 0's four scoring scripts as programs, for the
// regret comparison.
func (r *run) replayScripts(l values, reqs []*serveReq) ([]*program, error) {
	seen := map[*serveReq]bool{}
	win := newCounters()
	var parseSec float64
	const parseReps = 5
	sessions := 0
	for _, q := range reqs {
		if seen[q] {
			continue
		}
		seen[q] = true
		op := r.nextOp()
		sp := r.tr.begin(0, op, 0, "dml.Parse "+q.kind)
		parseSec += medianOf(parseReps, func() { dml.Parse(q.req.Script) })
		r.tr.end(sp)
		sp = r.tr.begin(0, op, 0, "dml.Session.Run "+q.kind)
		s, err := directSession(q.req, r.cfg.optimizer(codegen.ModeGen))
		r.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", q.kind, err)
		}
		win.addSession(s)
		sessions++
	}
	win.layerValues(l, sessions)
	l.set("dml.parse_s", parseSec, sessions*parseReps)

	var programs []*program
	for k, h := range hotKinds {
		q := hotRequest(0, k, r.cfg.seed)
		programs = append(programs, &program{
			name: h.kind, regretReps: 3,
			runMode: func(mode codegen.Mode, reps int) (float64, error) {
				s, err := directSession(q.req, r.cfg.optimizer(mode))
				if err != nil {
					return 0, err
				}
				defer s.Close()
				ds := make([]float64, reps)
				for i := range ds {
					t := time.Now()
					if err := s.Run(q.req.Script); err != nil {
						return 0, err
					}
					ds[i] = time.Since(t).Seconds()
				}
				return median(ds), nil
			},
		})
	}
	return programs, nil
}

// serveProbe gives a batch workload's traced run its serve.* numbers: one
// short segment of the serve_mix schedule through a server of its own.
func serveProbe(r *run, l values) error {
	refs, err := hotReferences(r.cfg)
	if err != nil {
		return err
	}
	sched := newSchedule(r.cfg.seed, refs)
	e, err := startServe()
	if err != nil {
		return err
	}
	defer e.close()
	if err := r.warmServe(e, sched); err != nil {
		return err
	}
	_, results := r.runSegment(e, sched.segment(scaled(600, r.cfg.scale, 40)))
	r.checkCold(results)
	collectServe(results).layerValues(l, e)
	return nil
}
