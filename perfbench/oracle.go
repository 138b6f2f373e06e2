package main

import (
	"fmt"
	"math"
	"sort"

	"spbtree/internal/core"
	"spbtree/internal/metric"
)

// hit is one answer in the form every layer can report: the tree's Result,
// a cluster's wire result and an HTTP response all reduce to it.
type hit struct {
	ID    uint64
	Dist  float64
	Exact bool
}

func toHits(rs []core.Result) []hit {
	out := make([]hit, len(rs))
	for i, r := range rs {
		out[i] = hit{r.Object.ID(), r.Dist, r.Exact}
	}
	return out
}

// canonical sorts hits by (distance, ID), the order exact kNN answers in.
func canonical(hs []hit) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Dist != hs[j].Dist {
			return hs[i].Dist < hs[j].Dist
		}
		return hs[i].ID < hs[j].ID
	})
}

// scan is the brute-force oracle: every live object's true distance to q,
// in canonical order.
func scan(dist metric.DistanceFunc, live []metric.Object, q metric.Object) []hit {
	out := make([]hit, len(live))
	for i, o := range live {
		out[i] = hit{o.ID(), dist.Distance(q, o), true}
	}
	canonical(out)
	return out
}

// checkKNN reports whether got is exactly the first k entries of the scan:
// same IDs, bit-identical distances, canonical order.
func checkKNN(got []hit, all []hit, k int) error {
	want := all
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("knn: %d answers, brute force has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("knn: answer %d is (id %d, dist %v), brute force has (id %d, dist %v)",
				i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
	return nil
}

// checkRange reports whether got holds exactly the objects within r of the
// query. An answer the index proved by Lemma 2 carries an upper bound
// instead of its distance (Exact false); it is checked against the true
// distance and then compared in canonical order like the rest.
func checkRange(got []hit, all []hit, r float64) error {
	truth := make(map[uint64]float64, len(all))
	var want []hit
	for _, h := range all {
		truth[h.ID] = h.Dist
		if h.Dist <= r {
			want = append(want, h)
		}
	}
	norm := make([]hit, len(got))
	for i, h := range got {
		d, ok := truth[h.ID]
		switch {
		case !ok:
			return fmt.Errorf("range: answer id %d is not a live object", h.ID)
		case h.Exact && math.Float64bits(h.Dist) != math.Float64bits(d):
			return fmt.Errorf("range: answer id %d has dist %v, true distance %v", h.ID, h.Dist, d)
		case !h.Exact && h.Dist < d:
			return fmt.Errorf("range: answer id %d has bound %v below its true distance %v", h.ID, h.Dist, d)
		}
		norm[i] = hit{h.ID, d, true}
	}
	canonical(norm)
	if len(norm) != len(want) {
		return fmt.Errorf("range: %d answers, brute force has %d", len(norm), len(want))
	}
	for i := range norm {
		if norm[i].ID != want[i].ID {
			return fmt.Errorf("range: answer %d is id %d, brute force has id %d", i, norm[i].ID, want[i].ID)
		}
	}
	return nil
}

// sameHits reports whether two layers answered byte-identically: same IDs,
// distances and exactness flags in the same order.
func sameHits(got, want []hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) ||
			got[i].Exact != want[i].Exact {
			return fmt.Errorf("answer %d is %+v, reference has %+v", i, got[i], want[i])
		}
	}
	return nil
}

// kthDist is the k-th distance of an exact answer, +Inf when it has fewer.
func kthDist(exact []hit, k int) float64 {
	if len(exact) < k || k == 0 {
		return math.Inf(1)
	}
	return exact[k-1].Dist
}

func dists(hs []hit) []float64 {
	out := make([]float64, len(hs))
	for i, h := range hs {
		out[i] = h.Dist
	}
	return out
}

// sampled is one read the oracle checks after the measured phase.
type sampled struct {
	op  string // "knn" or "range"
	q   metric.Object
	got []hit
}

// oracleSamples returns a round's exact answers for the oracle, skipping
// the ops that failed (nil answers).
func oracleSamples(q metric.Object, knn, rng []hit) []sampled {
	var out []sampled
	if knn != nil {
		out = append(out, sampled{"knn", q, knn})
	}
	if rng != nil {
		out = append(out, sampled{"range", q, rng})
	}
	return out
}

// checkSamples runs the brute-force oracle over every sampled read and
// records each mismatch on rep.
func checkSamples(rep *report, dist metric.DistanceFunc, live []metric.Object, ss []sampled, k int, r float64) {
	for _, s := range ss {
		all := scan(dist, live, s.q)
		var err error
		if s.op == "knn" {
			err = checkKNN(s.got, all, k)
		} else {
			err = checkRange(s.got, all, r)
		}
		if err != nil {
			rep.problem("oracle: query id %d: %v", s.q.ID(), err)
		}
	}
	rep.checked += len(ss)
}
