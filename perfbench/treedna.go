package main

import (
	"context"
	"fmt"
	"time"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/metric"
	"spbtree/internal/recall"
)

// runTreeDNA drives an in-process core.Tree over DNAEdit with its graph tier:
// one closed-loop client sends rounds of exact kNN, graph kNN and range on
// one held-out read each.
func runTreeDNA(cfg runConfig) (*report, error) {
	p := cfg.p
	ds := dataset.DNAEdit(p.N+p.Pool, cfg.seed)
	base, pool := ds.Objects[:p.N], ds.Objects[p.N:]
	rep := newReport()

	var graphTimes []float64
	build := func(dist metric.DistanceFunc) (*core.Tree, error) {
		t, err := core.Build(base, core.Options{Distance: dist, Codec: ds.Codec})
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		start := time.Now()
		if err := t.BuildGraph(core.GraphOptions{}); err != nil {
			t.Close()
			return nil, fmt.Errorf("build graph: %w", err)
		}
		graphTimes = append(graphTimes, time.Since(start).Seconds())
		return t, nil
	}
	setups := &setupTimer[*core.Tree]{repeats: p.SetupRepeats,
		setup: func() (*core.Tree, error) { return build(ds.Distance) }, teardown: func(t *core.Tree) { t.Close() }}
	tree, err := setups.first(rep)
	if err != nil {
		return nil, err
	}
	defer tree.Close()

	r := &treeReader{p: p, pool: pool}
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	r.measure(tree, nil, nil, -cfg.seed, warmup(seconds))

	// A traced run measures the plain tree for the first half, then a tree
	// whose metric is wrapped in the kernel clock, through the WithStats
	// entry points and with spans, for the second half.
	phase := seconds
	if cfg.trace {
		phase = seconds / 2
	}
	s0, wall0, ss := r.measure(tree, nil, nil, cfg.seed, phase)
	readMetrics(rep, s0, wall0)
	checkSamples(rep, ds.Distance, base, ss, p.K, p.Radius)
	rep.e2e["index_mb"] = measure{float64(tree.StorageBytes()) / (1 << 20), "MiB"}
	if err := setups.rest(rep); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}

	wrapped, clock := wrapDistance(ds.Distance)
	traced, err := build(wrapped)
	if err != nil {
		return nil, err
	}
	defer traced.Close()
	lay, tr := newLayers(), newTracer()
	r.measure(traced, nil, nil, -cfg.seed, warmup(seconds))
	clock.ns.Store(0)
	clock.evals.Store(0)
	s1, wall1, ss1 := r.measure(traced, tr, lay, cfg.seed, phase)
	checkSamples(rep, ds.Distance, base, ss1, p.K, p.Radius)
	lay.kernelMetrics(clock)
	lay.mean("graph.build_s", median(graphTimes))
	fidelity(rep, tree, traced, clock, r, pool[:min(10, len(pool))])
	return rep, finishTrace(rep, cfg, lay, tr, s0, wall0, s1, wall1)
}

// treeReader is the read client of the in-process tree.
type treeReader struct {
	p    params
	pool []metric.Object
}

// measure runs the client closed-loop on t for d, drawing queries from the
// pool in the order seed gives.
func (r *treeReader) measure(t *core.Tree, tr *tracer, lay *layers, seed int64, d time.Duration) (*samples, time.Duration, []sampled) {
	return measureLoop(r.p.Clients, r.p.OracleEvery, newQueryOrder(r.pool, seed), d, func(s *samples, q metric.Object) []sampled {
		return r.round(t, tr, lay, s, q)
	})
}

// round sends exact kNN, graph kNN and range for query q and returns the
// exact answers for the oracle. With a tracer it uses the WithStats entry
// points and records spans and layer figures.
func (r *treeReader) round(t *core.Tree, tr *tracer, lay *layers, s *samples, q metric.Object) []sampled {
	ctx := context.Background()
	opts := core.SearchOptions{Ef: r.p.Ef}
	call := func(op string, fn func() ([]core.Result, core.QueryStats, error)) []hit {
		id := tr.newOp()
		sp := tr.begin(id, -1, "client")
		start := time.Now()
		inner := tr.begin(id, sp, "tree")
		res, qs, err := fn()
		tr.end(inner)
		d := time.Since(start)
		tr.end(sp)
		if err != nil {
			s.fail()
			return nil
		}
		s.ok(op, d, len(res))
		if lay != nil {
			lay.queryStats(op, qs)
		}
		return toHits(res)
	}
	withStats := tr != nil
	exact := call("knn", func() ([]core.Result, core.QueryStats, error) {
		if withStats {
			return t.KNNWithStatsCtx(ctx, q, r.p.K)
		}
		res, err := t.KNNCtx(ctx, q, r.p.K)
		return res, core.QueryStats{}, err
	})
	approx := call("ann", func() ([]core.Result, core.QueryStats, error) {
		if withStats {
			return t.KNNGraphWithStatsCtx(ctx, q, r.p.K, opts)
		}
		res, err := t.KNNGraphCtx(ctx, q, r.p.K, opts)
		return res, core.QueryStats{}, err
	})
	ranged := call("range", func() ([]core.Result, core.QueryStats, error) {
		if withStats {
			return t.RangeSearchWithStatsCtx(ctx, q, r.p.Radius)
		}
		res, err := t.RangeSearchCtx(ctx, q, r.p.Radius)
		return res, core.QueryStats{}, err
	})
	if exact != nil && approx != nil {
		s.recall = append(s.recall, recall.WithinKth(kthDist(exact, r.p.K), dists(approx), r.p.K))
	}
	return oracleSamples(q, exact, ranged)
}

// fidelity checks that tracing did not change the program's work. The same
// fixed queries run on the plain tree through the plain entry points and on
// the clocked tree through the WithStats entry points must cost the same
// compdists. (The clock may see a few more evaluations than compdists: the
// kNN engine probes some candidates on the bare metric and counts them only
// when it commits them.) Page
// accesses are compared with both trees serial, because concurrent verifiers
// may reorder page fetches and so shift the cache's hits and misses by a few
// pages from run to run; the default-worker figures are recorded alongside.
func fidelity(rep *report, plain, traced *core.Tree, clock *kernelClock, r *treeReader, qs []metric.Object) {
	ctx := context.Background()
	opts := core.SearchOptions{Ef: r.p.Ef}
	info := map[string]interface{}{}
	rep.info["fidelity"] = info
	workers := plain.Workers()
	defer plain.SetWorkers(workers)
	defer traced.SetWorkers(traced.Workers())
	for _, w := range []int{workers, 1} {
		plain.SetWorkers(w)
		traced.SetWorkers(w)
		plain.ResetStats()
		for _, q := range qs {
			plain.KNNCtx(ctx, q, r.p.K)
			plain.KNNGraphCtx(ctx, q, r.p.K, opts)
			plain.RangeSearchCtx(ctx, q, r.p.Radius)
		}
		a := plain.TakeStats()
		traced.ResetStats()
		evals0 := clock.evals.Load()
		var abandoned, batched int64
		for _, q := range qs {
			_, s1, _ := traced.KNNWithStatsCtx(ctx, q, r.p.K)
			_, s2, _ := traced.KNNGraphWithStatsCtx(ctx, q, r.p.K, opts)
			_, s3, _ := traced.RangeSearchWithStatsCtx(ctx, q, r.p.Radius)
			abandoned += s1.Abandoned + s2.Abandoned + s3.Abandoned
			batched += s1.BatchedCandidates + s2.BatchedCandidates + s3.BatchedCandidates
		}
		b := traced.TakeStats()
		evals := clock.evals.Load() - evals0
		info[fmt.Sprintf("workers_%d", w)] = map[string]int64{
			"untraced_compdists": a.DistanceComputations, "traced_compdists": b.DistanceComputations,
			"untraced_pa": a.PageAccesses, "traced_pa": b.PageAccesses, "clock_evals": evals,
			"abandoned": abandoned, "batched": batched,
		}
		if a.DistanceComputations != b.DistanceComputations || (w == 1 && a.PageAccesses != b.PageAccesses) {
			rep.problem("trace fidelity (workers %d): untraced compdists %d PA %d, traced compdists %d PA %d",
				w, a.DistanceComputations, a.PageAccesses, b.DistanceComputations, b.PageAccesses)
		}
		if abandoned == 0 || batched == 0 {
			rep.problem("trace fidelity: bounded or batch kernel not engaged (abandoned %d, batched %d)", abandoned, batched)
		}
	}
}
