// Command perfbench is the repository's benchmark: it runs one named
// workload against the SPB-tree system through its public entry points,
// checks the answers it samples against an oracle, and prints its metrics.
//
//	perfbench --workload tree-dna --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is the end-to-end result;
// with --trace 1 it carries the per-layer metrics of a traced run. The line
// before it is the full record: environment stamp, sample counts, and every
// metric the run measured. README.md describes the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed workloads.json
var workloadsJSON []byte

// params is one workload's frozen inputs (workloads.json).
type params struct {
	// N objects are indexed; the next Pool serve as queries, and on the
	// write workload the Inserts after those are inserted.
	N       int `json:"n"`
	Pool    int `json:"pool"`
	Inserts int `json:"inserts"`
	// Prefill writes are applied to the tree directly before the warm-up,
	// unmeasured, so that the write buffer reaches the compaction threshold
	// during the measured phase.
	Prefill int `json:"prefill"`
	// Clients is the number of closed-loop read clients (the write workload
	// has one reader and one writer).
	Clients   int     `json:"clients"`
	K         int     `json:"k"`
	Radius    float64 `json:"radius"`
	Ef        int     `json:"ef"`
	MaxVerify int     `json:"max_verify"`
	Shards    int     `json:"shards"`
	Eps       float64 `json:"eps"`
	Joins     int     `json:"joins"`
	// SetupRepeats is how many times set-up runs, spread over the run;
	// setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`
	// OracleEvery samples one query round in this many for the oracle.
	OracleEvery int `json:"oracle_every"`
}

func loadParams(name string) (params, error) {
	var all map[string]params
	if err := json.Unmarshal(workloadsJSON, &all); err != nil {
		return params{}, fmt.Errorf("workloads.json: %w", err)
	}
	p, ok := all[name]
	if !ok {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		return params{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	return p, nil
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	p        params
	// work is the directory for on-disk indexes and the span dump.
	work string
}

// measure is one metric value with its unit.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted, failed int64
	// problems lists every oracle or fidelity failure; any makes the run
	// incorrect.
	problems []string
	// e2e and layer hold the end-to-end and per-layer metrics.
	e2e, layer map[string]measure
	// checked counts the answers the oracle checked.
	checked int
	// samples counts latency samples per operation kind.
	samples map[string]int
	// info carries workload facts for the record (placement, selectivity).
	info map[string]interface{}
}

func newReport() *report {
	return &report{e2e: map[string]measure{}, layer: map[string]measure{},
		samples: map[string]int{}, info: map[string]interface{}{}}
}

func (r *report) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"tree-dna":        runTreeDNA,
	"cluster-vectors": runCluster,
	"http-words-rw":   runHTTP,
}

func main() {
	name := flag.String("workload", "", "workload name (tree-dna, cluster-vectors, http-words-rw)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	p, err := loadParams(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "run-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{workload: name, seed: seed, seconds: seconds, trace: trace, p: p, work: work}
	steal0, total0 := cpuSteal()
	rep, err := fn(cfg)
	if err != nil {
		return err
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor gave other guests while this run wanted the
		// CPUs; timings of runs with a high share are not comparable.
		rep.info["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if trace {
		// Keep the span dump next to the build, outside the removed work dir.
		if src := filepath.Join(work, "spans.jsonl"); fileExists(src) {
			dst := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
			if err := os.Rename(src, dst); err == nil {
				rep.info["spans_file"] = dst
			}
		}
	}
	return emit(os.Stdout, cfg, rep)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

// emit prints the full record and then the result line.
func emit(w io.Writer, cfg runConfig, rep *report) error {
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: metrics}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
		rep.problems = append(rep.problems, "no operation was attempted")
	}
	record := map[string]interface{}{
		"workload":   cfg.workload,
		"env":        stamp(cfg),
		"params":     cfg.p,
		"traced":     cfg.trace,
		"samples":    rep.samples,
		"checked":    rep.checked,
		"problems":   rep.problems,
		"info":       rep.info,
		"end_to_end": rep.e2e,
		"per_layer":  rep.layer,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]interface{}{"record": record}); err != nil {
		return err
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	return enc.Encode(res)
}
