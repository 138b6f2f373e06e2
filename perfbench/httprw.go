package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/recall"
	"spbtree/internal/server"
	"spbtree/internal/wal"
)

// liveServer is a durable Words tree served over loopback HTTP.
type liveServer struct {
	dir  string
	tree *core.Tree
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer creates the durable tree the way spbtool build -durable does
// and serves it the way spbserve does (default workers, queue, timeouts,
// fsync on). With a tracer, the handler and the backend record spans and
// the backend records each query's stats.
func startServer(dir string, base []metric.Object, ds dataset.Dataset, dist metric.DistanceFunc, tr *tracer, lay *layers) (*liveServer, error) {
	tree, err := core.CreateDurable(dir, base, core.Options{Distance: dist, Codec: ds.Codec}, core.DurableOptions{})
	if err != nil {
		return nil, fmt.Errorf("create durable: %w", err)
	}
	parse := func(id uint64, line string) (metric.Object, error) { return metric.NewStr(id, line), nil }
	scfg := server.Config{ParseQuery: server.TextParser(parse), ParseObject: server.TextObjects(parse)}
	if tr != nil {
		scfg.Backend = &tracedBackend{TreeBackend: server.NewTreeBackend(tree), tr: tr, lay: lay}
	} else {
		scfg.Tree = tree
	}
	srv, err := server.New(scfg)
	if err != nil {
		tree.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		tree.Close()
		return nil, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = tracedHandler(handler, tr)
	}
	ls := &liveServer{dir: dir, tree: tree, srv: srv, hs: &http.Server{Handler: handler},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln)
	}()
	return ls, nil
}

func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.done
	ls.srv.Shutdown(ctx)
	ls.tree.Close()
}

// generation reads which base generation CURRENT names; each background
// compaction advances it by one.
func (ls *liveServer) generation() int {
	raw, err := os.ReadFile(filepath.Join(ls.dir, core.CurrentFile))
	if err != nil {
		return 0
	}
	var g int
	fmt.Sscanf(strings.TrimSpace(string(raw)), "gen-%d", &g)
	return g
}

// spanHeader carries the client's op and span IDs to the traced handler.
const spanHeader = "X-Perfbench-Span"

// tracedHandler opens an "http" span around the program's handler, parented
// by the client span named in the request header. Requests without the
// header (the warm-up's) are passed through untraced.
func tracedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op uint64
		var parent int32
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &op, &parent); err != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.begin(op, parent, "http")
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), op, id)))
		tr.end(id)
	})
}

// tracedBackend is a pass-through server.Backend: it forwards every call
// to the tree backend, opening a "backend" span and recording the query's
// stats and its own time per op.
type tracedBackend struct {
	*server.TreeBackend
	tr  *tracer
	lay *layers
}

// span opens a "backend" span for a traced request and returns the function
// that closes it and records the op's figures; untraced requests record
// nothing.
func (b *tracedBackend) span(ctx context.Context, op string) func(core.QueryStats, bool) {
	ref, ok := spanFrom(ctx)
	if !ok {
		return func(core.QueryStats, bool) {}
	}
	id := b.tr.begin(ref.op, ref.span, "backend")
	start := time.Now()
	return func(qs core.QueryStats, query bool) {
		b.tr.end(id)
		b.lay.mean("server."+op+".backend_ms", ms(time.Since(start)))
		if query {
			b.lay.queryStats(op, qs)
		}
	}
}

func (b *tracedBackend) KNNWithStatsCtx(ctx context.Context, q metric.Object, k int) ([]core.Result, core.QueryStats, error) {
	done := b.span(ctx, "knn")
	res, qs, err := b.TreeBackend.KNNWithStatsCtx(ctx, q, k)
	done(qs, err == nil)
	return res, qs, err
}

func (b *tracedBackend) KNNApproxWithStatsCtx(ctx context.Context, q metric.Object, k, maxVerify int) ([]core.Result, core.QueryStats, error) {
	done := b.span(ctx, "ann")
	res, qs, err := b.TreeBackend.KNNApproxWithStatsCtx(ctx, q, k, maxVerify)
	done(qs, err == nil)
	return res, qs, err
}

func (b *tracedBackend) RangeSearchWithStatsCtx(ctx context.Context, q metric.Object, r float64) ([]core.Result, core.QueryStats, error) {
	done := b.span(ctx, "range")
	res, qs, err := b.TreeBackend.RangeSearchWithStatsCtx(ctx, q, r)
	done(qs, err == nil)
	return res, qs, err
}

func (b *tracedBackend) Insert(ctx context.Context, obj metric.Object) error {
	done := b.span(ctx, "write")
	err := b.TreeBackend.Insert(ctx, obj)
	done(core.QueryStats{}, false)
	return err
}

func (b *tracedBackend) Delete(ctx context.Context, obj metric.Object) error {
	done := b.span(ctx, "write")
	err := b.TreeBackend.Delete(ctx, obj)
	done(core.QueryStats{}, false)
	return err
}

// httpClient is one keep-alive connection to the server.
type httpClient struct {
	c   *http.Client
	url string
	tr  *tracer
	// rejected counts 429 answers.
	rejected int64
}

func newHTTPClient(url string, tr *tracer) *httpClient {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: t, Timeout: 30 * time.Second}, url: url, tr: tr}
}

type wireHit struct {
	ID    uint64  `json:"id"`
	Dist  float64 `json:"dist"`
	Exact bool    `json:"exact"`
}

type wireResp struct {
	Results []wireHit `json:"results"`
	Partial bool      `json:"partial"`
	Error   string    `json:"error"`
}

// post sends one request and returns the decoded answer; any non-200 status,
// partial answer or transport error is a failure.
func (h *httpClient) post(path string, body interface{}, op uint64, span int32) ([]hit, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, h.url+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if h.tr != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", op, span))
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		h.rejected++
	}
	var out wireResp
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s: status %d: %v", path, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || out.Partial {
		return nil, fmt.Errorf("%s: status %d partial %v: %s", path, resp.StatusCode, out.Partial, out.Error)
	}
	hs := make([]hit, len(out.Results))
	for i, r := range out.Results {
		hs[i] = hit{r.ID, r.Dist, r.Exact}
	}
	return hs, nil
}

// timed sends one request as client op kind and records it.
func (h *httpClient) timed(s *samples, kind, path string, body interface{}) ([]hit, time.Duration, error) {
	id := h.tr.newOp()
	sp := h.tr.begin(id, -1, "client")
	start := time.Now()
	hs, err := h.post(path, body, id, sp)
	d := time.Since(start)
	h.tr.end(sp)
	if err != nil {
		s.fail()
		return nil, d, err
	}
	s.ok(kind, d, len(hs))
	return hs, d, nil
}

// writer is the write stream: alternately an insert of the next held-out
// word and a delete of the next base object in a seeded order, so every
// write touches an ID no earlier write touched.
type writer struct {
	inserts, deletes   []metric.Object
	nextIns, nextDel   int
	ackedIns, ackedDel []metric.Object
	// unknown counts failed writes, whose effect the client cannot know.
	unknown int
}

// next returns the i-th write's object and whether it is an insert; nil
// once the stream is used up.
func (w *writer) next(i int) (metric.Object, bool) {
	if i%2 == 0 && w.nextIns < len(w.inserts) {
		w.nextIns++
		return w.inserts[w.nextIns-1], true
	}
	if w.nextDel < len(w.deletes) {
		w.nextDel++
		return w.deletes[w.nextDel-1], false
	}
	return nil, false
}

func (w *writer) acked(obj metric.Object, insert bool) {
	if insert {
		w.ackedIns = append(w.ackedIns, obj)
	} else {
		w.ackedDel = append(w.ackedDel, obj)
	}
}

// prefill applies the stream's first n writes to the tree directly. They
// are not measured; they bring the write buffer close to the compaction
// threshold, which the measured phase's writes then cross.
func (w *writer) prefill(t *core.Tree, n int) error {
	for i := 0; i < n; i++ {
		obj, insert := w.next(i)
		if obj == nil {
			return nil
		}
		var err error
		if insert {
			err = t.Insert(obj)
		} else {
			err = t.Delete(obj)
		}
		if err != nil {
			return fmt.Errorf("prefill write %d: %w", i, err)
		}
		w.acked(obj, insert)
	}
	return nil
}

// step sends the i-th write of the measured phase.
func (w *writer) step(h *httpClient, s *samples, i int) {
	obj, insert := w.next(i)
	if obj == nil {
		return
	}
	path := "/v1/delete"
	if insert {
		path = "/v1/insert"
	}
	body := map[string]interface{}{"id": obj.ID(), "query": obj.(*metric.Str).S}
	if _, _, err := h.timed(s, "write", path, body); err != nil {
		w.unknown++
		return
	}
	w.acked(obj, insert)
}

// rwPhase is what one measured phase of the write workload left behind.
type rwPhase struct {
	s           *samples
	wall        time.Duration
	w           *writer
	rejected    int64
	compactions int
	// wal holds the WAL's counters over the measured phase.
	wal wal.Stats
}

// runHTTP drives the durable Words service with one reader and one writer
// connection.
func runHTTP(cfg runConfig) (*report, error) {
	p := cfg.p
	ds := dataset.Words(p.N+p.Pool+p.Inserts, cfg.seed)
	base, pool, fresh := ds.Objects[:p.N], ds.Objects[p.N:p.N+p.Pool], ds.Objects[p.N+p.Pool:]
	rng := rand.New(rand.NewSource(cfg.seed))
	deletes := make([]metric.Object, len(base))
	for i, j := range rng.Perm(len(base)) {
		deletes[i] = base[j]
	}
	rep := newReport()
	inst := 0
	start := func(dist metric.DistanceFunc, tr *tracer, lay *layers) (*liveServer, error) {
		inst++
		return startServer(filepath.Join(cfg.work, fmt.Sprintf("words-%d", inst)), base, ds, dist, tr, lay)
	}
	setups := &setupTimer[*liveServer]{repeats: p.SetupRepeats,
		setup:    func() (*liveServer, error) { return start(ds.Distance, nil, nil) },
		teardown: (*liveServer).close}
	ls, err := setups.first(rep)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	// Measured before any write, so that it does not depend on how many
	// writes the run acked (the WAL grows with each).
	rep.e2e["index_mb"] = measure{dirMiB(ls.dir), "MiB"}

	seconds := time.Duration(cfg.seconds * float64(time.Second))
	phase := seconds
	if cfg.trace {
		phase = seconds / 2
	}
	// run prefills and warms up ls, then measures it for d. The kernel
	// clock, if any, is reset as the measured phase starts.
	run := func(ls *liveServer, tr *tracer, lay *layers, clock *kernelClock, d time.Duration) (rwPhase, error) {
		w := &writer{inserts: fresh, deletes: deletes}
		t0 := time.Now()
		if err := w.prefill(ls.tree, p.Prefill); err != nil {
			return rwPhase{}, err
		}
		rep.info["prefill_s"] = time.Since(t0).Seconds()
		rep.info["prefill_delta_len"] = ls.tree.DeltaLen()
		reader, wc := newHTTPClient(ls.url, tr), newHTTPClient(ls.url, tr)
		// Warm up with one untraced reader alone: writes during warm-up
		// would change the measured phase's starting state.
		warmer, warm := newHTTPClient(ls.url, nil), newQueryOrder(pool, -cfg.seed)
		closedLoop(1, warmup(seconds), func(_, _ int) { httpRound(warmer, p, warm.next(), newSamples()) })
		warmer.c.CloseIdleConnections()
		per := []*samples{newSamples(), newSamples()}
		order := newQueryOrder(pool, cfg.seed)
		var stopSampler func()
		if lay != nil {
			stopSampler = sampleDelta(ls, lay)
		}
		if clock != nil {
			clock.ns.Store(0)
			clock.evals.Store(0)
		}
		gen0 := ls.generation()
		wal0, _ := ls.tree.WALStats()
		wall := closedLoop(2, d, func(c, i int) {
			if c == 0 {
				httpRound(reader, p, order.next(), per[0])
			} else {
				w.step(wc, per[1], i)
			}
		})
		if stopSampler != nil {
			stopSampler()
		}
		reader.c.CloseIdleConnections()
		wc.c.CloseIdleConnections()
		per[0].merge(per[1])
		wal1, _ := ls.tree.WALStats()
		return rwPhase{per[0], wall, w, reader.rejected + wc.rejected, ls.generation() - gen0,
			wal.Stats{Appends: wal1.Appends - wal0.Appends, Syncs: wal1.Syncs - wal0.Syncs}}, nil
	}

	ph0, err := run(ls, nil, nil, nil, phase)
	if err != nil {
		return nil, err
	}
	s0, wall0 := ph0.s, ph0.wall
	readMetrics(rep, s0, wall0)
	writeMetrics(rep.info, s0, wall0)
	rep.info["compactions"] = ph0.compactions
	checkLive(rep, ls, ds.Distance, base, pool, ph0.w, p)
	if err := setups.rest(rep); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}

	wrapped, clock := wrapDistance(ds.Distance)
	lay, tr := newLayers(), newTracer()
	traced, err := start(wrapped, tr, lay)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	ph1, err := run(traced, tr, lay, clock, phase)
	if err != nil {
		return nil, err
	}
	s1, wall1 := ph1.s, ph1.wall
	lay.kernelMetrics(clock)
	checkLive(rep, traced, ds.Distance, base, pool, ph1.w, p)
	lay.mean("core.compactions", float64(ph1.compactions))
	lay.add("wal.records_per_sync", float64(ph1.wal.Appends), float64(ph1.wal.Syncs))
	lay.mean("wal.syncs_per_s", float64(ph1.wal.Syncs)/wall1.Seconds())
	lay.add("server.rejected_frac", float64(ph1.rejected), float64(s1.attempted))
	wm := map[string]interface{}{}
	writeMetrics(wm, s1, wall1)
	lay.mean("client.write.p50_ms", wm["write_p50_ms"].(float64))
	lay.mean("client.write.p95_ms", wm["write_p95_ms"].(float64))
	lay.mean("client.write.ops_s", wm["write_ops_s"].(float64))
	// Client latency minus the backend's time is what the HTTP layer,
	// JSON and admission cost each request.
	for _, op := range []string{"knn", "range", "ann", "write"} {
		if b := lay.get("server." + op + ".backend_ms"); b > 0 {
			var sum time.Duration
			for _, d := range s1.lat[op] {
				sum += d
			}
			lay.mean("server."+op+".overhead_ms", ms(sum)/float64(len(s1.lat[op]))-b)
		}
	}
	return rep, finishTrace(rep, cfg, lay, tr, s0, wall0, s1, wall1)
}

// writeMetrics records the write stream's latency and throughput.
func writeMetrics(into map[string]interface{}, s *samples, wall time.Duration) {
	into["write_p50_ms"] = s.quantileMS(0.5, "write")
	into["write_p95_ms"] = s.quantileMS(0.95, "write")
	into["write_ops_s"] = s.rate(wall, "write")
	into["write_samples"] = len(s.lat["write"])
}

// sampleDelta samples the write buffer's size every 50 ms until stopped.
func sampleDelta(ls *liveServer, lay *layers) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				lay.mean("core.delta_len_mean", float64(ls.tree.DeltaLen()))
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// httpRound sends exact kNN, budgeted approximate kNN and range for the
// query word.
func httpRound(h *httpClient, p params, query metric.Object, s *samples) {
	q := query.(*metric.Str).S
	exact, _, err1 := h.timed(s, "knn", "/v1/knn", map[string]interface{}{"query": q, "k": p.K})
	approx, _, err2 := h.timed(s, "ann", "/v1/knn/approx", map[string]interface{}{"query": q, "k": p.K, "max_verify": p.MaxVerify})
	h.timed(s, "range", "/v1/range", map[string]interface{}{"query": q, "radius": p.Radius})
	if err1 == nil && err2 == nil {
		s.recall = append(s.recall, recall.WithinKth(kthDist(exact, p.K), dists(approx), p.K))
	}
}

// checkLive is the write workload's oracle, run through the server's HTTP
// API once the clients stopped: the live count adds up, every acked insert
// is found by an r=0 range query and every acked delete is gone, and
// sampled exact reads match a brute-force scan of the live set the client
// knows. (Answers read during the measured phase race with the writes, so
// they have no fixed expected value.)
func checkLive(rep *report, ls *liveServer, dist metric.DistanceFunc, base, pool []metric.Object, w *writer, p params) {
	h := newHTTPClient(ls.url, nil)
	defer h.c.CloseIdleConnections()
	defer func(t0 time.Time) { rep.info["oracle_s"] = time.Since(t0).Seconds() }(time.Now())
	want := len(base) + len(w.ackedIns) - len(w.ackedDel)
	if w.unknown == 0 {
		if got, err := h.objects(); err != nil || got != want {
			rep.problem("oracle: live count %d (err %v), want %d + %d inserts - %d deletes = %d",
				got, err, len(base), len(w.ackedIns), len(w.ackedDel), want)
		}
	}
	has := func(o metric.Object) (bool, error) {
		hs, err := h.post("/v1/range", map[string]interface{}{"query": o.(*metric.Str).S, "radius": 0}, 0, -1)
		for _, x := range hs {
			if x.ID == o.ID() {
				return true, err
			}
		}
		return false, err
	}
	for _, o := range w.ackedIns {
		if ok, err := has(o); err != nil || !ok {
			rep.problem("oracle: acked insert id %d not found (err %v)", o.ID(), err)
		}
	}
	gone := make(map[uint64]bool, len(w.ackedDel))
	for _, o := range w.ackedDel {
		gone[o.ID()] = true
		if ok, err := has(o); err != nil || ok {
			rep.problem("oracle: acked delete id %d still present (err %v)", o.ID(), err)
		}
	}
	rep.checked += len(w.ackedIns) + len(w.ackedDel)
	rep.info["acked_inserts"] = len(w.ackedIns)
	rep.info["acked_deletes"] = len(w.ackedDel)
	if w.unknown > 0 {
		rep.info["oracle_note"] = fmt.Sprintf("%d writes failed; count and brute-force checks skipped", w.unknown)
		return
	}
	live := make([]metric.Object, 0, want)
	for _, o := range base {
		if !gone[o.ID()] {
			live = append(live, o)
		}
	}
	live = append(live, w.ackedIns...)
	var ss []sampled
	for i := 0; i < len(pool) && i < 20; i++ {
		q := pool[i].(*metric.Str).S
		knn, err := h.post("/v1/knn", map[string]interface{}{"query": q, "k": p.K}, 0, -1)
		if err != nil {
			rep.problem("oracle: knn: %v", err)
			continue
		}
		rng, err := h.post("/v1/range", map[string]interface{}{"query": q, "radius": p.Radius}, 0, -1)
		if err != nil {
			rep.problem("oracle: range: %v", err)
			continue
		}
		ss = append(ss, sampled{"knn", pool[i], knn}, sampled{"range", pool[i], rng})
	}
	checkSamples(rep, dist, live, ss, p.K, p.Radius)
}

// objects reads the server's live object count from its health probe.
func (h *httpClient) objects() (int, error) {
	resp, err := h.c.Get(h.url + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Objects int `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Objects, nil
}
