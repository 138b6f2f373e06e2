package main

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spbtree/internal/cluster"
	"spbtree/internal/core"
	"spbtree/internal/dataset"
	"spbtree/internal/forest"
	"spbtree/internal/metric"
	"spbtree/internal/obs"
	"spbtree/internal/recall"
	"spbtree/internal/sfc"
)

// nodeInstances numbers the cluster nodes this process starts, so each
// node publishes its metrics registry under a name of its own.
var nodeInstances atomic.Int64

// liveCluster is three in-process nodes on loopback TCP plus the router.
type liveCluster struct {
	root   string
	nodes  []*cluster.Node
	lns    []net.Listener
	names  []string // expvar registry names of the nodes
	router *cluster.Router
	serve  sync.WaitGroup
}

// startCluster bootstraps base into shards over three nodes the way
// spbcluster init does, opens the nodes with the deployed defaults (query
// workers 0, WAL fsync on, default compaction threshold), and starts a
// router. dist is the metric the nodes query with.
func startCluster(root string, base []metric.Object, p params, ds dataset.Dataset, dist metric.DistanceFunc) (*liveCluster, error) {
	ccfg := &cluster.Config{Type: "vectors", Dim: vectorDim, Shards: p.Shards, Curve: "zorder"}
	canon := []string{"n1", "n2", "n3"}
	for _, n := range canon {
		ccfg.Nodes = append(ccfg.Nodes, cluster.NodeDef{Name: n, Addr: "pending"})
	}
	placement, err := cluster.Bootstrap(ccfg, base, cluster.BootstrapOptions{Dir: root, Tree: clusterTreeOptions(ds)})
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	lc := &liveCluster{root: root}
	for _, name := range canon {
		// The placement keeps the canonical names; only the node's own
		// name, which labels its metrics registry, is made unique.
		own := fmt.Sprintf("%s.%d", name, nodeInstances.Add(1))
		node, err := cluster.OpenNode(cluster.NodeConfig{Name: own, Dir: cluster.NodeDir(root, name),
			Load: core.LoadOptions{Distance: dist, Codec: ds.Codec}})
		if err != nil {
			lc.close()
			return nil, fmt.Errorf("open node %s: %w", name, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			node.Close()
			lc.close()
			return nil, err
		}
		placement.Nodes[name] = ln.Addr().String()
		lc.nodes = append(lc.nodes, node)
		lc.lns = append(lc.lns, ln)
		lc.names = append(lc.names, "spbcluster_node_"+own)
		lc.serve.Add(1)
		go func() {
			defer lc.serve.Done()
			node.Serve(ln)
		}()
	}
	lc.router, err = cluster.NewRouter(placement, ds.Codec)
	if err != nil {
		lc.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	return lc, nil
}

// clusterTreeOptions are the shard-tree options spbcluster init uses.
func clusterTreeOptions(ds dataset.Dataset) core.Options {
	return core.Options{Distance: ds.Distance, Codec: ds.Codec, Curve: sfc.ZOrder, Seed: 1}
}

func (lc *liveCluster) close() {
	if lc.router != nil {
		lc.router.Close()
	}
	for _, n := range lc.nodes {
		n.Close()
	}
	// Node.Close closes the listener only if Serve has already taken it;
	// a node closed right after it was started would leave Serve blocked in
	// Accept, so the listeners are closed here as well.
	for _, ln := range lc.lns {
		ln.Close()
	}
	lc.serve.Wait()
}

// rpcTotals sums the nodes' published per-RPC-kind counts and latencies.
func (lc *liveCluster) rpcTotals() map[string][2]int64 {
	out := map[string][2]int64{}
	for _, name := range lc.names {
		v, ok := expvar.Get(name).(expvar.Func)
		if !ok {
			continue
		}
		snap, ok := v().(map[string]obs.OpSnapshot)
		if !ok {
			continue
		}
		for kind, s := range snap {
			a := out[kind]
			a[0] += s.Latency.Count
			a[1] += s.Latency.SumNS
			out[kind] = a
		}
	}
	return out
}

// vectorDim is the dimensionality of the cluster workload's vectors.
const vectorDim = 16

// vectors returns the cluster workload's objects: the Color generator's
// clustered 16-d blobs compared under L2, the metric of the vectors type
// spbcluster serves. (The Synthetic generator draws a random mixing matrix
// per seed, which moves range selectivity at a fixed radius from 24 to 91
// answers between seeds; the blobs keep it near 22.)
func vectors(n int, seed int64) dataset.Dataset {
	gen := dataset.Color(n, seed)
	return dataset.Dataset{Name: "vectors", Objects: gen.Objects,
		Distance: metric.L2(vectorDim), Codec: metric.VectorCodec{Dim: vectorDim}}
}

// runCluster drives a three-node loopback cluster over 16-d vectors: two
// closed-loop clients send exact kNN, approximate kNN and range through the
// router, and a fixed number of self-joins follow.
func runCluster(cfg runConfig) (*report, error) {
	p := cfg.p
	ds := vectors(p.N+p.Pool, cfg.seed)
	base, pool := ds.Objects[:p.N], ds.Objects[p.N:]
	rep := newReport()
	inst := 0
	start := func(dist metric.DistanceFunc) (*liveCluster, error) {
		inst++
		return startCluster(filepath.Join(cfg.work, fmt.Sprintf("cluster-%d", inst)), base, p, ds, dist)
	}
	setups := &setupTimer[*liveCluster]{repeats: p.SetupRepeats,
		setup: func() (*liveCluster, error) { return start(ds.Distance) }, teardown: (*liveCluster).close}
	lc, err := setups.first(rep)
	if err != nil {
		return nil, err
	}
	defer lc.close()
	rep.e2e["index_mb"] = measure{dirMiB(lc.root), "MiB"}
	// The oracle: an in-process forest built with the same options.
	ref, err := forest.Build(base, forest.Options{Tree: clusterTreeOptions(ds), Shards: p.Shards})
	if err != nil {
		return nil, fmt.Errorf("reference forest: %w", err)
	}

	c := &clusterClient{p: p, pool: pool, ref: ref}
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	c.measure(lc, nil, nil, -cfg.seed, warmup(seconds))
	phase := seconds
	if cfg.trace {
		phase = seconds / 2
	}
	s0, wall0, ss := c.measure(lc, nil, nil, cfg.seed, phase)
	readMetrics(rep, s0, wall0)
	c.check(rep, ss)
	joinTimes := c.joins(rep, lc, nil, nil, true)
	rep.info["join_s"] = median(joinTimes)
	if err := setups.rest(rep); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}

	wrapped, clock := wrapDistance(ds.Distance)
	traced, err := start(wrapped)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	lay, tr := newLayers(), newTracer()
	c.measure(traced, nil, nil, -cfg.seed, warmup(seconds))
	clock.ns.Store(0)
	clock.evals.Store(0)
	before := traced.rpcTotals()
	s1, wall1, ss1 := c.measure(traced, tr, lay, cfg.seed, phase)
	after := traced.rpcTotals()
	c.check(rep, ss1)
	lay.kernelMetrics(clock)
	reads := float64(len(s1.lat["knn"]) + len(s1.lat["range"]) + len(s1.lat["ann"]))
	var rpcs, rpcNS int64
	for _, kind := range []string{"rpc.knn", "rpc.range", "rpc.hint"} {
		rpcs += after[kind][0] - before[kind][0]
		rpcNS += after[kind][1] - before[kind][1]
	}
	lay.add("cluster.rpcs_per_read", float64(rpcs), reads)
	lay.add("cluster.node_rpc_ms", float64(rpcNS)/1e6, float64(rpcs))
	c.wire(traced, tr, lay, 30)
	before = traced.rpcTotals()
	jt := c.joins(rep, traced, tr, lay, false)
	after = traced.rpcTotals()
	lay.mean("client.join.s", median(jt))
	rpcs, rpcNS = 0, 0
	for _, kind := range []string{"rpc.join", "rpc.export"} {
		rpcs += after[kind][0] - before[kind][0]
		rpcNS += after[kind][1] - before[kind][1]
	}
	lay.add("cluster.join.rpcs", float64(rpcs), float64(len(jt)))
	lay.add("cluster.join.node_ms", float64(rpcNS)/1e6, float64(len(jt)))
	return rep, finishTrace(rep, cfg, lay, tr, s0, wall0, s1, wall1)
}

// clusterClient is the read client of the router.
type clusterClient struct {
	p    params
	pool []metric.Object
	ref  *forest.Forest
}

// measure runs the clients closed-loop against lc for d, drawing queries
// from the pool in the order seed gives.
func (c *clusterClient) measure(lc *liveCluster, tr *tracer, lay *layers, seed int64, d time.Duration) (*samples, time.Duration, []sampled) {
	return measureLoop(c.p.Clients, c.p.OracleEvery, newQueryOrder(c.pool, seed), d, func(s *samples, q metric.Object) []sampled {
		return c.round(lc, tr, lay, s, q)
	})
}

// round sends exact kNN, approximate kNN and range for query q through the
// router.
func (c *clusterClient) round(lc *liveCluster, tr *tracer, lay *layers, s *samples, q metric.Object) []sampled {
	ctx := context.Background()
	call := func(op string, fn func() ([]core.Result, core.QueryStats, error)) []hit {
		id := tr.newOp()
		sp := tr.begin(id, -1, "client")
		start := time.Now()
		inner := tr.begin(id, sp, "router")
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
	exact := call("knn", func() ([]core.Result, core.QueryStats, error) { return lc.router.KNN(ctx, q, c.p.K) })
	approx := call("ann", func() ([]core.Result, core.QueryStats, error) {
		return lc.router.KNNApprox(ctx, q, c.p.K, c.p.MaxVerify)
	})
	ranged := call("range", func() ([]core.Result, core.QueryStats, error) { return lc.router.Range(ctx, q, c.p.Radius) })
	if exact != nil && approx != nil {
		s.recall = append(s.recall, recall.WithinKth(kthDist(exact, c.p.K), dists(approx), c.p.K))
	}
	return oracleSamples(q, exact, ranged)
}

// wire times the same queries through the router and on the reference
// forest, one at a time with no other load, so the difference is what the
// wire and the router add: forest.<op>.ms and cluster.<op>.wire_ms.
func (c *clusterClient) wire(lc *liveCluster, tr *tracer, lay *layers, n int) {
	ctx := context.Background()
	for _, q := range c.pool[:min(n, len(c.pool))] {
		for _, op := range []string{"knn", "ann", "range"} {
			id := tr.newOp()
			sp := tr.begin(id, -1, "client")
			rs := tr.begin(id, sp, "router")
			start := time.Now()
			var err error
			switch op {
			case "knn":
				_, _, err = lc.router.KNN(ctx, q, c.p.K)
			case "ann":
				_, _, err = lc.router.KNNApprox(ctx, q, c.p.K, c.p.MaxVerify)
			default:
				_, _, err = lc.router.Range(ctx, q, c.p.Radius)
			}
			routerMS := ms(time.Since(start))
			tr.end(rs)
			fs := tr.begin(id, sp, "forest")
			start = time.Now()
			switch op {
			case "knn":
				c.ref.KNNCtx(ctx, q, c.p.K)
			case "ann":
				c.ref.KNNApproxCtx(ctx, q, c.p.K, c.p.MaxVerify)
			default:
				c.ref.RangeQueryCtx(ctx, q, c.p.Radius)
			}
			forestMS := ms(time.Since(start))
			tr.end(fs)
			tr.end(sp)
			if err == nil {
				lay.mean("forest."+op+".ms", forestMS)
				lay.mean("cluster."+op+".wire_ms", routerMS-forestMS)
			}
		}
	}
}

// check compares every sampled router answer with the reference forest's
// answer to the same query, byte for byte.
func (c *clusterClient) check(rep *report, ss []sampled) {
	ctx := context.Background()
	for _, s := range ss {
		var want []core.Result
		var err error
		if s.op == "knn" {
			want, err = c.ref.KNNCtx(ctx, s.q, c.p.K)
		} else {
			want, err = c.ref.RangeQueryCtx(ctx, s.q, c.p.Radius)
		}
		if err != nil {
			rep.problem("oracle: reference forest %s: %v", s.op, err)
			continue
		}
		if err := sameHits(s.got, toHits(want)); err != nil {
			rep.problem("oracle: %s query id %d: router vs forest: %v", s.op, s.q.ID(), err)
		}
	}
	rep.checked += len(ss)
}

// joins runs the fixed number of router self-joins and returns their wall
// times. With verify, the first join's pairs are compared with the
// reference forest's self-join.
func (c *clusterClient) joins(rep *report, lc *liveCluster, tr *tracer, lay *layers, verify bool) []float64 {
	ctx := context.Background()
	var times []float64
	for j := 0; j < c.p.Joins; j++ {
		id := tr.newOp()
		sp := tr.begin(id, -1, "client")
		inner := tr.begin(id, sp, "router")
		start := time.Now()
		pairs, err := lc.router.Join(ctx, c.p.Eps)
		d := time.Since(start)
		tr.end(inner)
		tr.end(sp)
		rep.attempted++
		if err != nil {
			rep.failed++
			continue
		}
		times = append(times, d.Seconds())
		if lay != nil && j == 0 {
			fs := tr.begin(id, -1, "forest")
			fstart := time.Now()
			forest.Join(c.ref, c.ref, c.p.Eps)
			lay.mean("forest.join.ms", ms(time.Since(fstart)))
			tr.end(fs)
		}
		if verify && j == 0 {
			rep.info["join_pairs"] = len(pairs)
			ref, err := forest.Join(c.ref, c.ref, c.p.Eps)
			if err != nil {
				rep.problem("oracle: reference join: %v", err)
				continue
			}
			want := core.IDPairs(ref)
			core.SortIDPairs(want)
			if len(pairs) != len(want) {
				rep.problem("oracle: join has %d pairs, reference %d", len(pairs), len(want))
				continue
			}
			for i := range pairs {
				if pairs[i] != want[i] {
					rep.problem("oracle: join pair %d is %+v, reference %+v", i, pairs[i], want[i])
					break
				}
			}
		}
	}
	return times
}
