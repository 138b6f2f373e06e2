package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spbtree/internal/core"
	"spbtree/internal/dataset"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a workload so the smoke test runs in seconds.
func tiny(t *testing.T, name string, trace bool) runConfig {
	p, err := loadParams(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Pool, p.SetupRepeats, p.OracleEvery, p.Joins = 40, 2, 2, 1
	switch name {
	case "tree-dna":
		p.N = 400
	case "cluster-vectors":
		p.N = 2000
	case "http-words-rw":
		p.N, p.Inserts, p.Prefill = 1000, 400, 100
	}
	return runConfig{workload: name, seed: 3, seconds: 2, trace: trace, p: p, work: t.TempDir()}
}

// runTiny runs one tiny workload and returns its result line.
func runTiny(t *testing.T, cfg runConfig) result {
	t.Helper()
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := emit(&out, cfg, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v attempted %d failed %d; problems %v",
			cfg.workload, res.Correct, res.Attempted, res.Failed, rep.problems)
	}
	return res
}

// layerWork lists, per workload, per-layer metrics the traced run must
// report as non-zero: the layers the workload exists to exercise.
var layerWork = map[string][]string{
	"tree-dna": {"metric.ns_per_compdist", "metric.knn.compdists", "metric.range.batched_frac",
		"metric.knn.abandoned_frac", "core.knn.verify_ms", "core.range.candidates", "core.knn.workers",
		"graph.build_s", "graph.ann.hops", "span.tree.self_ms"},
	"cluster-vectors": {"metric.knn.compdists", "core.knn.nodes_read", "forest.knn.ms",
		"forest.range.ms", "cluster.rpcs_per_read", "cluster.node_rpc_ms", "cluster.join.rpcs",
		"client.join.s", "span.router.self_ms"},
	"http-words-rw": {"metric.knn.compdists", "core.knn.candidates", "wal.syncs_per_s",
		"wal.records_per_sync", "core.delta_len_mean", "server.knn.backend_ms", "server.write.backend_ms",
		"client.write.p50_ms", "client.write.ops_s", "span.http.self_ms", "span.backend.self_ms"},
}

func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("no runner for workload %q", w.Name)
			}
			res := runTiny(t, tiny(t, w.Name, false))
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				if ok && got.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			traced := runTiny(t, tiny(t, w.Name, true))
			for _, m := range spec.PerLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range layerWork[w.Name] {
				if traced.Metrics[name].Value == 0 {
					t.Errorf("traced run reports 0 for %s", name)
				}
			}
		})
	}
}

// TestOracleRejectsCorruption feeds the oracle a correct answer and then
// deliberately corrupted copies of it.
func TestOracleRejectsCorruption(t *testing.T) {
	ds := dataset.DNAEdit(420, 5)
	base, q := ds.Objects[:400], ds.Objects[410]
	tree, err := core.Build(base, core.Options{Distance: ds.Distance, Codec: ds.Codec})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	all := scan(ds.Distance, base, q)
	knn, err := tree.KNN(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := all[5].Dist
	rng, err := tree.RangeQuery(q, r)
	if err != nil {
		t.Fatal(err)
	}
	good, goodRange := toHits(knn), toHits(rng)
	if err := checkKNN(good, all, 10); err != nil {
		t.Fatalf("correct kNN answer rejected: %v", err)
	}
	if err := checkRange(goodRange, all, r); err != nil {
		t.Fatalf("correct range answer rejected: %v", err)
	}
	corrupt := func(hs []hit, f func([]hit) []hit) []hit {
		return f(append([]hit(nil), hs...))
	}
	knnBad := map[string][]hit{
		"distance": corrupt(good, func(h []hit) []hit { h[3].Dist += 0.5; return h }),
		"id":       corrupt(good, func(h []hit) []hit { h[2].ID = all[50].ID; return h }),
		"order":    corrupt(good, func(h []hit) []hit { h[0], h[9] = h[9], h[0]; return h }),
		"missing":  good[:9],
	}
	for name, bad := range knnBad {
		if checkKNN(bad, all, 10) == nil {
			t.Errorf("kNN oracle accepted an answer with a corrupted %s", name)
		}
	}
	rangeBad := map[string][]hit{
		"missing": goodRange[1:],
		"extra":   append(append([]hit(nil), goodRange...), all[len(all)-1]),
		"dist":    corrupt(goodRange, func(h []hit) []hit { h[0].Dist, h[0].Exact = h[0].Dist+1, true; return h }),
	}
	for name, bad := range rangeBad {
		if checkRange(bad, all, r) == nil {
			t.Errorf("range oracle accepted an answer with a %s entry", name)
		}
	}
	flipped := corrupt(good, func(h []hit) []hit { h[0].Exact = !h[0].Exact; return h })
	if sameHits(flipped, good) == nil {
		t.Error("byte-identity check accepted a flipped exactness flag")
	}
}

// TestHTTPOracleRejectsCorruption checks that the write workload's oracle
// reads through the HTTP layer: served behind a proxy that drops the last
// answer of every query response, the same live server fails the oracle.
func TestHTTPOracleRejectsCorruption(t *testing.T) {
	cfg := tiny(t, "http-words-rw", false)
	p := cfg.p
	ds := dataset.Words(p.N+p.Pool+p.Inserts, cfg.seed)
	base, pool, fresh := ds.Objects[:p.N], ds.Objects[p.N:p.N+p.Pool], ds.Objects[p.N+p.Pool:]
	ls, err := startServer(filepath.Join(cfg.work, "words"), base, ds, ds.Distance, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.close()
	w := &writer{inserts: fresh, deletes: base}
	if err := w.prefill(ls.tree, 20); err != nil {
		t.Fatal(err)
	}
	good := newReport()
	checkLive(good, ls, ds.Distance, base, pool, w, p)
	if len(good.problems) > 0 {
		t.Fatalf("oracle rejected the correct server: %v", good.problems)
	}

	proxy := httptest.NewServer(dropLastAnswer(ls.srv.Handler()))
	defer proxy.Close()
	corrupt := *ls
	corrupt.url = proxy.URL
	bad := newReport()
	checkLive(bad, &corrupt, ds.Distance, base, pool, w, p)
	if len(bad.problems) == 0 {
		t.Fatal("oracle accepted answers with the last result dropped")
	}
}

// dropLastAnswer serves h but removes the last result from every response
// that has results.
func dropLastAnswer(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var body map[string]json.RawMessage
		var results []json.RawMessage
		if json.Unmarshal(rec.Body.Bytes(), &body) == nil && json.Unmarshal(body["results"], &results) == nil && len(results) > 0 {
			body["results"], _ = json.Marshal(results[:len(results)-1])
			rec.Body.Reset()
			json.NewEncoder(rec.Body).Encode(body)
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}
