package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// stamp is the environment every record carries, so records from different
// commits and machines can be told apart and compared.
func stamp(cfg runConfig) map[string]interface{} {
	flush := "none (in-memory tree)"
	if cfg.workload != "tree-dna" {
		flush = "WAL group commit with fsync"
	}
	return map[string]interface{}{
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"seed":       cfg.seed,
		"n":          cfg.p.N,
		"seconds":    cfg.seconds,
		"flush":      flush,
	}
}

// commit names the code under test: the git revision when the sources are a
// git checkout, otherwise a digest of every .go file and go.mod below the
// working directory.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSteal returns the machine's steal ticks and total ticks from
// /proc/stat (zeros where it is not available).
func cpuSteal() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// ---- latency samples -------------------------------------------------------

// samples collects per-operation latencies of one client; clients merge
// theirs after the measured phase, so recording takes no lock.
type samples struct {
	lat               map[string][]time.Duration
	attempted, failed int64
	// answers totals the answers each op kind returned, for selectivity.
	answers map[string]int
	// recall holds one tie-aware recall@k per approximate query.
	recall []float64
}

func newSamples() *samples {
	return &samples{lat: map[string][]time.Duration{}, answers: map[string]int{}}
}

// ok records a successful op that took d and returned n answers.
func (s *samples) ok(op string, d time.Duration, n int) {
	s.attempted++
	s.lat[op] = append(s.lat[op], d)
	s.answers[op] += n
}

func (s *samples) fail() {
	s.attempted++
	s.failed++
}

func (s *samples) merge(o *samples) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.recall = append(s.recall, o.recall...)
	for op, l := range o.lat {
		s.lat[op] = append(s.lat[op], l...)
	}
	for op, n := range o.answers {
		s.answers[op] += n
	}
}

// quantileMS returns the q-quantile latency of ops over the measured phase,
// in milliseconds.
func (s *samples) quantileMS(q float64, ops ...string) float64 {
	var ds []time.Duration
	for _, op := range ops {
		ds = append(ds, s.lat[op]...)
	}
	return quantile(ds, q)
}

// meanMS returns the mean latency of op over the measured phase, in
// milliseconds.
func (s *samples) meanMS(op string) float64 {
	var sum time.Duration
	for _, d := range s.lat[op] {
		sum += d
	}
	return ms(sum) / float64(max(len(s.lat[op]), 1))
}

// rate returns the ops completed per second of a measured phase of length
// wall.
func (s *samples) rate(wall time.Duration, ops ...string) float64 {
	n := 0
	for _, op := range ops {
		n += len(s.lat[op])
	}
	return float64(n) / wall.Seconds()
}

// quantile returns the q-quantile (nearest rank) of ds in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// readMetrics fills the read-side end-to-end metrics every workload reports.
func readMetrics(rep *report, s *samples, wall time.Duration) {
	for _, op := range []string{"knn", "range", "ann"} {
		rep.samples[op] = len(s.lat[op])
		if n := len(s.lat[op]); n > 0 {
			rep.info[op+"_mean_answers"] = float64(s.answers[op]) / float64(n)
		}
	}
	// kNN is reported by its mean: on tree-dna its per-query work spreads
	// almost evenly over a wide range, so its median moves with the seed's
	// data. The p50 and the p95s are in the record but not among the
	// end-to-end metrics: across seeds they did not repeat within the
	// largest bound (README).
	rep.e2e["knn_mean_ms"] = measure{s.meanMS("knn"), "ms"}
	rep.e2e["range_p50_ms"] = measure{s.quantileMS(0.5, "range"), "ms"}
	rep.info["knn_p50_ms"] = s.quantileMS(0.5, "knn")
	rep.info["knn_p95_ms"] = s.quantileMS(0.95, "knn")
	rep.info["range_p95_ms"] = s.quantileMS(0.95, "range")
	rep.e2e["ann_p50_ms"] = measure{s.quantileMS(0.5, "ann"), "ms"}
	rep.e2e["ann_recall"] = measure{mean(s.recall), "fraction"}
	rep.e2e["read_qps"] = measure{s.rate(wall, "knn", "range", "ann"), "ops/s"}
	rep.attempted += s.attempted
	rep.failed += s.failed
}

// closedLoop runs clients goroutines for d, each calling step with its own
// client index and iteration count until time is up. It returns the wall
// time from start until the last client finished its last operation.
func closedLoop(clients int, d time.Duration, step func(client, iter int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				step(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// measureLoop runs clients closed-loop for d. round performs one round on
// query q for one client and returns the answers it got; every
// oracleEvery-th round's answers are kept for the oracle.
func measureLoop(clients, oracleEvery int, pool *queryOrder, d time.Duration,
	round func(s *samples, q metric.Object) []sampled) (*samples, time.Duration, []sampled) {
	per := make([]*samples, clients)
	kept := make([][]sampled, clients)
	for c := range per {
		per[c] = newSamples()
	}
	wall := closedLoop(clients, d, func(c, i int) {
		got := round(per[c], pool.next())
		if i%oracleEvery == 0 {
			kept[c] = append(kept[c], got...)
		}
	})
	all := newSamples()
	var ss []sampled
	for c := range per {
		all.merge(per[c])
		ss = append(ss, kept[c]...)
	}
	return all, wall, ss
}

// queryOrder hands out the query pool in a seeded order without
// replacement, shared by all clients, so a run's queries are the first ones
// of one permutation and repeat only after the whole pool was used.
type queryOrder struct {
	pool []metric.Object
	perm []int
	i    atomic.Int64
}

func newQueryOrder(pool []metric.Object, seed int64) *queryOrder {
	return &queryOrder{pool: pool, perm: rand.New(rand.NewSource(seed)).Perm(len(pool))}
}

func (o *queryOrder) next() metric.Object {
	i := o.i.Add(1) - 1
	return o.pool[o.perm[i%int64(len(o.perm))]]
}

// warmup is how long clients run unmeasured before the measured phase, so
// caches fill and the planner calibrates: a tenth of the run, at least one
// second.
func warmup(seconds time.Duration) time.Duration {
	return max(seconds/10, time.Second)
}

// setupTimer times a workload's set-up. A set-up takes 0.1-3 s, while the
// machine's speed drifts over tens of seconds (CPUs and disk are shared with
// other guests), so the repeats are spread over the run: the first half
// before the warm-up, ending with the instance the run measures, the rest
// after the measured phase. setup_s is the median of all of them.
type setupTimer[T any] struct {
	repeats  int
	setup    func() (T, error)
	teardown func(T)
	times    []float64
}

// once sets up one instance and times it.
func (s *setupTimer[T]) once() (T, error) {
	heapMiB()
	start := time.Now()
	inst, err := s.setup()
	if err == nil {
		s.times = append(s.times, time.Since(start).Seconds())
	}
	return inst, err
}

// first runs the first half of the repeats and returns the last instance,
// the one the run measures; heap_mb is the live heap right after it.
func (s *setupTimer[T]) first(rep *report) (T, error) {
	var inst T
	var err error
	for i := 0; i < max((s.repeats+1)/2, 1); i++ {
		if i > 0 {
			s.teardown(inst)
		}
		if inst, err = s.once(); err != nil {
			return inst, err
		}
	}
	rep.e2e["heap_mb"] = measure{heapMiB(), "MiB"}
	return inst, nil
}

// rest runs the remaining repeats, tearing each instance down at once, and
// reports setup_s.
func (s *setupTimer[T]) rest(rep *report) error {
	for len(s.times) < s.repeats {
		inst, err := s.once()
		if err != nil {
			return err
		}
		s.teardown(inst)
	}
	rep.e2e["setup_s"] = measure{median(s.times), "s"}
	rep.info["setup_s_all"] = s.times
	return nil
}

// heapMiB forces a collection and returns the live Go heap.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirMiB sums the sizes of the regular files below dir.
func dirMiB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// ---- per-layer aggregates --------------------------------------------------

// layers accumulates per-layer figures as sum/weight pairs: a mean adds the
// value with weight one, a ratio adds numerator and denominator, so each
// reported figure is sum ÷ weight over the traced run.
type layers struct {
	mu   sync.Mutex
	sums map[string]*[2]float64
}

func newLayers() *layers { return &layers{sums: map[string]*[2]float64{}} }

func (l *layers) add(name string, num, den float64) {
	l.mu.Lock()
	a := l.sums[name]
	if a == nil {
		a = new([2]float64)
		l.sums[name] = a
	}
	a[0] += num
	a[1] += den
	l.mu.Unlock()
}

func (l *layers) mean(name string, v float64) { l.add(name, v, 1) }

func (l *layers) get(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.sums[name]; a != nil && a[1] != 0 {
		return a[0] / a[1]
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// queryStats records one query's QueryStats under the metric and core
// layers for op ("knn", "range" or "ann").
func (l *layers) queryStats(op string, qs core.QueryStats) {
	m, c := "metric."+op+".", "core."+op+"."
	l.mean(m+"compdists", float64(qs.Compdists))
	l.add(m+"abandoned_frac", float64(qs.Abandoned), float64(qs.Verified))
	l.add(m+"batched_frac", float64(qs.BatchedCandidates), float64(qs.Verified))
	l.mean(c+"filter_ms", ms(qs.FilterTime))
	l.mean(c+"verify_ms", ms(qs.VerifyTime))
	l.mean(c+"plan_ms", ms(qs.PlanTime))
	l.mean(c+"nodes_read", float64(qs.NodesRead))
	l.add(c+"entries_pruned_frac", float64(qs.EntriesPruned), float64(qs.EntriesScanned))
	l.mean(c+"index_pa", float64(qs.IndexPA))
	l.mean(c+"data_pa", float64(qs.DataPA))
	hits := float64(qs.IndexCacheHits + qs.DataCacheHits)
	l.add(c+"cache_hit_frac", hits, hits+float64(qs.PageAccesses()))
	l.mean(c+"candidates", float64(qs.Verified))
	l.add(c+"false_pos_frac", float64(qs.Discarded), float64(qs.Verified))
	l.mean(c+"workers", float64(qs.Plan.Workers))
	l.mean(c+"delta_candidates", float64(qs.DeltaCandidates))
	l.mean(c+"tombstones_skipped", float64(qs.TombstonesSkipped))
	if op == "ann" {
		l.mean("graph.ann.hops", float64(qs.GraphHops))
		l.mean("graph.ann.candidates", float64(qs.GraphCandidates))
	}
	if op == "range" && qs.Plan.ShardsTotal > 0 {
		l.add("forest.range.shards_pruned_frac", float64(qs.Plan.ShardsPruned), float64(qs.Plan.ShardsTotal))
	}
	if op == "knn" && qs.Plan.ShardsTotal > 0 {
		staged := 0.0
		if qs.Plan.Staged {
			staged = 1
		}
		l.mean("forest.knn.staged_frac", staged)
	}
}

// ---- spans -----------------------------------------------------------------

// span is one timed call into a layer. Spans of one client operation share
// Op; Parent is the index of the causing span, -1 for the client span.
type span struct {
	Op     uint64 `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced phases run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   atomic.Uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates a client-operation ID.
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(op uint64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the mean self time in milliseconds: the
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := map[string]float64{}
	cnt := map[string]float64{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		sum[s.Name] += float64(self) / 1e6
		cnt[s.Name]++
	}
	for k := range sum {
		sum[k] /= cnt[k]
	}
	return sum
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi].
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, cur int64 = 0, lo
	for _, k := range kids {
		s, e := k.Start, k.End
		if e == 0 || e <= cur {
			continue
		}
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(s)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the current op and span through a context, so layers the
// benchmark reaches only through the program (the HTTP handler, the server
// backend) can parent their spans.
type spanKey struct{}

type spanRef struct {
	op   uint64
	span int32
}

func withSpan(ctx context.Context, op uint64, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, id})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// ---- distance kernel clock -------------------------------------------------

// kernelClock wraps the metric handed to the program and aggregates the
// wall time and evaluation count of every call. Like metric.Counter it is a
// pass-through: wrapDistance picks a variant that implements exactly the
// bounded and batch interfaces the wrapped metric implements, so the program
// takes the same kernel paths it would without the wrapper.
type kernelClock struct {
	fn    metric.DistanceFunc
	ns    atomic.Int64
	evals atomic.Int64
}

func (k *kernelClock) Distance(a, b metric.Object) float64 {
	t := time.Now()
	d := k.fn.Distance(a, b)
	k.ns.Add(int64(time.Since(t)))
	k.evals.Add(1)
	return d
}

func (k *kernelClock) MaxDistance() float64 { return k.fn.MaxDistance() }
func (k *kernelClock) Discrete() bool       { return k.fn.Discrete() }
func (k *kernelClock) Name() string         { return k.fn.Name() }

func (k *kernelClock) distanceAtMost(a, b metric.Object, t float64) (float64, bool) {
	start := time.Now()
	d, ok := k.fn.(metric.BoundedDistanceFunc).DistanceAtMost(a, b, t)
	k.ns.Add(int64(time.Since(start)))
	k.evals.Add(1)
	return d, ok
}

func (k *kernelClock) batchDistanceAtMost(q metric.Object, objs []metric.Object, t float64, d []float64, within []bool) {
	start := time.Now()
	k.fn.(metric.BatchDistanceFunc).BatchDistanceAtMost(q, objs, t, d, within)
	k.ns.Add(int64(time.Since(start)))
	k.evals.Add(int64(len(objs)))
}

type boundedClock struct{ *kernelClock }

func (b boundedClock) DistanceAtMost(a, c metric.Object, t float64) (float64, bool) {
	return b.distanceAtMost(a, c, t)
}

type batchClock struct{ *kernelClock }

func (b batchClock) BatchDistanceAtMost(q metric.Object, objs []metric.Object, t float64, d []float64, within []bool) {
	b.batchDistanceAtMost(q, objs, t, d, within)
}

type boundedBatchClock struct{ *kernelClock }

func (b boundedBatchClock) DistanceAtMost(a, c metric.Object, t float64) (float64, bool) {
	return b.distanceAtMost(a, c, t)
}

func (b boundedBatchClock) BatchDistanceAtMost(q metric.Object, objs []metric.Object, t float64, d []float64, within []bool) {
	b.batchDistanceAtMost(q, objs, t, d, within)
}

// wrapDistance returns fn behind a kernel clock, and the clock.
func wrapDistance(fn metric.DistanceFunc) (metric.DistanceFunc, *kernelClock) {
	k := &kernelClock{fn: fn}
	bounded, batch := metric.IsBounded(fn), metric.IsBatch(fn)
	switch {
	case bounded && batch:
		return boundedBatchClock{k}, k
	case bounded:
		return boundedClock{k}, k
	case batch:
		return batchClock{k}, k
	}
	return k, k
}

// kernelMetrics records the kernel layer's global figures and derives each
// op's kernel time from its mean compdists.
func (l *layers) kernelMetrics(k *kernelClock) {
	if k == nil || k.evals.Load() == 0 {
		return
	}
	nsPer := float64(k.ns.Load()) / float64(k.evals.Load())
	l.mean("metric.ns_per_compdist", nsPer)
	for _, op := range []string{"knn", "range", "ann"} {
		if c := l.get("metric." + op + ".compdists"); c > 0 {
			l.mean("metric."+op+".kernel_ms", c*nsPer/1e6)
		}
	}
}

// ---- per-layer metric list -------------------------------------------------

// perLayer lists every per-layer metric with its unit, in output order. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = func() [][2]string {
	var out [][2]string
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, [2]string{n, unit})
		}
	}
	add("ns", "metric.ns_per_compdist")
	for _, op := range []string{"knn", "range", "ann"} {
		m, c := "metric."+op+".", "core."+op+"."
		add("count", m+"compdists")
		add("ms", m+"kernel_ms")
		add("fraction", m+"abandoned_frac", m+"batched_frac")
		add("ms", c+"filter_ms", c+"verify_ms", c+"plan_ms")
		add("count", c+"nodes_read", c+"index_pa", c+"data_pa", c+"candidates", c+"workers",
			c+"delta_candidates", c+"tombstones_skipped")
		add("fraction", c+"entries_pruned_frac", c+"cache_hit_frac", c+"false_pos_frac")
	}
	add("count", "core.delta_len_mean", "core.compactions", "wal.records_per_sync")
	add("1/s", "wal.syncs_per_s")
	add("s", "graph.build_s")
	add("count", "graph.ann.hops", "graph.ann.candidates")
	add("ms", "forest.knn.ms", "forest.range.ms", "forest.ann.ms", "forest.join.ms")
	add("fraction", "forest.range.shards_pruned_frac", "forest.knn.staged_frac")
	add("count", "cluster.rpcs_per_read")
	add("ms", "cluster.node_rpc_ms", "cluster.knn.wire_ms", "cluster.range.wire_ms", "cluster.ann.wire_ms")
	add("count", "cluster.join.rpcs")
	add("ms", "cluster.join.node_ms")
	for _, op := range []string{"knn", "range", "ann", "write"} {
		add("ms", "server."+op+".backend_ms", "server."+op+".overhead_ms")
	}
	add("fraction", "server.rejected_frac")
	add("ms", "client.knn.p50_ms", "client.knn.p95_ms", "client.range.p95_ms", "client.write.p50_ms", "client.write.p95_ms")
	add("ops/s", "client.write.ops_s")
	add("s", "client.join.s")
	for _, s := range spanNames {
		add("ms", "span."+s+".self_ms")
	}
	add("fraction", "trace.overhead_frac")
	return out
}()

// spanNames are the layers the traced run opens spans for.
var spanNames = []string{"client", "http", "backend", "tree", "router", "forest"}

// finishTrace completes a traced run: it derives span self times and the
// tracing overhead (untraced reads per second over traced, minus one), dumps
// the spans, and fills rep.layer with every per-layer metric.
func finishTrace(rep *report, cfg runConfig, lay *layers, tr *tracer, s0 *samples, wall0 time.Duration, s1 *samples, wall1 time.Duration) error {
	for name, self := range tr.selfTimes() {
		lay.mean("span."+name+".self_ms", self)
	}
	if r1 := s1.rate(wall1, "knn", "range", "ann"); r1 > 0 {
		lay.mean("trace.overhead_frac", s0.rate(wall0, "knn", "range", "ann")/r1-1)
		rep.info["traced_read_qps"] = r1
	}
	rep.info["traced_knn_mean_ms"] = s1.meanMS("knn")
	lay.mean("client.knn.p50_ms", s0.quantileMS(0.5, "knn"))
	lay.mean("client.knn.p95_ms", s0.quantileMS(0.95, "knn"))
	lay.mean("client.range.p95_ms", s0.quantileMS(0.95, "range"))
	rep.attempted += s1.attempted
	rep.failed += s1.failed
	for _, m := range perLayer {
		rep.layer[m[0]] = measure{lay.get(m[0]), m[1]}
	}
	return tr.dump(filepath.Join(cfg.work, "spans.jsonl"))
}
