package main

import (
	"fmt"
	"runtime"
	"time"

	p2h "p2h"
	"p2h/internal/core"
)

// inproc-exact: three in-process indexes over one clustered Sift surrogate,
// every query sent to all three, alternating per-query Search with
// SearchBatch groups, all exact and all checked against a linear scan.
const (
	inprocN = 50000
	// inprocPool is the number of distinct queries, enough that a run sends
	// each to the per-query path about once: with a small pool cycled, the
	// p99 would be the cost of the pool's two or three hardest queries.
	inprocPool      = 768
	inprocGroup     = 64 // queries per Search group and per SearchBatch call
	inprocK         = 10
	inprocSetupReps = 3
)

type inprocIndex struct {
	name   string // metric prefix: bctree, quant or balltree
	spec   p2h.Spec
	ix     p2h.Index
	builds []float64 // seconds, one per setup repetition
}

// inprocTotals accumulates one index's work over a window.
type inprocTotals struct {
	searchUS, batchUS []float64 // per-query Search times; per-query share of each batch
	stats             p2h.Stats // summed over per-query Search calls
	searches          int
	phases            [3]time.Duration // bound, verify, other (traced window only)
}

func runInproc(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	data := p2h.Dedup(p2h.GenerateDataset("Sift", inprocN, corpusSeed))
	queries := p2h.GenerateQueries(data, inprocPool, cfg.seed+1)
	indexes := []*inprocIndex{
		{name: "bctree", spec: p2h.Spec{Kind: p2h.KindBCTree, Seed: corpusSeed}},
		{name: "quant", spec: p2h.Spec{Kind: p2h.KindBCTree, Seed: corpusSeed, Quantize: true}},
		{name: "balltree", spec: p2h.Spec{Kind: p2h.KindBallTree, Seed: corpusSeed}},
	}

	// Set-up: build the three indexes; repeated, and the median reported.
	var setups []float64
	for r := 0; r < inprocSetupReps; r++ {
		for _, x := range indexes {
			x.ix = nil
		}
		runtime.GC()
		start := time.Now()
		for _, x := range indexes {
			t := time.Now()
			ix, err := p2h.New(data, x.spec)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", x.name, err)
			}
			x.ix = ix
			x.builds = append(x.builds, time.Since(t).Seconds())
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	out.samples["setup_s"] = len(setups)

	// Ground truth by linear scan, as p2h.GroundTruth computes it, on nproc
	// goroutines.
	gt := make([][]p2h.Result, queries.N)
	scan := p2h.NewLinearScan(data)
	parallel(queries.N, func(i int) { gt[i], _ = scan.Search(queries.Row(i), p2h.SearchOptions{K: inprocK}) })
	groups := make([]*p2h.Matrix, inprocPool/inprocGroup)
	for g := range groups {
		rows := make([]int32, inprocGroup)
		for i := range rows {
			rows[i] = int32(g*inprocGroup + i)
		}
		groups[g] = queries.SubsetRows(rows)
	}

	var lat, untracedLat, tracedLat []float64
	var answered int
	var steady rates
	totals := make([]inprocTotals, len(indexes))
	for _, w := range windows(cfg) {
		for i := range totals {
			totals[i] = inprocTotals{}
		}
		start := time.Now()
		deadline := start.Add(w.d)
		var wl []float64
		var samples []sample
		for step := 0; time.Now().Before(deadline); step++ {
			g := (step / 2) % len(groups)
			batch := step%2 == 1
			for xi, x := range indexes {
				if batch {
					n, wrong, err := inprocBatch(x, groups[g], gt[g*inprocGroup:], &totals[xi], w.tr)
					samples = append(samples, sample{end: time.Now(), answers: n, ms: -1})
					answered += n
					out.fails.attempted += int64(n)
					out.fails.wrong += int64(wrong)
					if err != nil {
						fmt.Println("  wrong:", err)
					}
					continue
				}
				for i := 0; i < inprocGroup && time.Now().Before(deadline); i++ {
					q := g*inprocGroup + i
					d, err := inprocSearch(x, queries.Row(q), gt[q], &totals[xi], w.tr)
					wl = append(wl, ms(d))
					samples = append(samples, sample{end: time.Now(), answers: 1, ms: ms(d)})
					answered++
					out.fails.attempted++
					if err != nil {
						out.fails.wrong++
						fmt.Printf("  wrong: %s query %d: %v\n", x.name, q, err)
					}
				}
			}
		}
		lat = append(lat, wl...)
		if w.tr == nil {
			untracedLat = wl
			steady = steadyRates(samples, start, time.Since(start))
		} else {
			tracedLat = wl
		}
	}
	out.setLatency("latency", lat)
	out.setSteady(steady)
	out.samples["qps"] = answered
	var bytes int64
	for _, x := range indexes {
		bytes += x.ix.IndexBytes()
	}
	out.metrics["index_bytes_per_point"] = float64(bytes) / float64(data.N)
	out.notes["n"] = data.N
	out.notes["dim"] = data.D
	out.notes["query_pool"] = inprocPool

	if cfg.tr != nil {
		// Per-layer metrics come from the traced window's totals.
		for xi, x := range indexes {
			t := totals[xi]
			perQ := func(v int64) float64 { return float64(v) / float64(max(t.searches, 1)) }
			p := x.name
			out.metrics[p+".search_us"] = mean(t.searchUS)
			out.metrics[p+".batch_us_per_query"] = mean(t.batchUS)
			out.metrics[p+".candidates_per_query"] = perQ(t.stats.Candidates)
			if b := mean(t.batchUS); b > 0 {
				out.metrics["exec.batch_speedup."+p] = mean(t.searchUS) / b
			}
			if p == "quant" {
				continue
			}
			out.metrics[p+".build_s"] = median(x.builds)
			out.metrics[p+".index_bytes_per_point"] = float64(x.ix.IndexBytes()) / float64(data.N)
			out.metrics[p+".nodes_per_query"] = perQ(t.stats.NodesVisited)
			out.metrics[p+".leaves_per_query"] = perQ(t.stats.LeavesVisited)
			out.metrics[p+".ip_per_query"] = perQ(t.stats.IPCount)
			out.metrics[p+".phase_bound_us"] = us(t.phases[0]) / float64(max(t.searches, 1))
			out.metrics[p+".phase_verify_us"] = us(t.phases[1]) / float64(max(t.searches, 1))
			out.metrics[p+".phase_other_us"] = us(t.phases[2]) / float64(max(t.searches, 1))
			if p == "bctree" {
				out.metrics[p+".collab_ip_per_query"] = perQ(t.stats.CollabIPs)
				out.metrics[p+".pruned_points_per_query"] = perQ(t.stats.PrunedPoints)
			}
		}
		if c := totals[0].stats.Candidates; c > 0 {
			// Both saw the same queries in the same window.
			out.metrics["quant.verify_frac"] = float64(totals[1].stats.Candidates) / float64(c) *
				float64(totals[0].searches) / float64(max(totals[1].searches, 1))
		}
		out.metrics["bench.trace_overhead_frac"] = traceOverhead(untracedLat, tracedLat)
	}
	return out, nil
}

// inprocSearch runs one per-query Search and checks it against the linear
// scan: same ids, same distances, same order.
func inprocSearch(x *inprocIndex, q []float32, want []p2h.Result, t *inprocTotals, tr *tracer) (time.Duration, error) {
	opts := p2h.SearchOptions{K: inprocK}
	var prof p2h.Profile
	if tr != nil {
		opts.Profile = &prof
	}
	start := time.Now()
	res, st := x.ix.Search(q, opts)
	end := time.Now()
	d := end.Sub(start)
	t.searchUS = append(t.searchUS, us(d))
	t.stats.Add(st)
	t.searches++
	if tr != nil {
		bound, verify := prof.Get(core.PhaseBound), prof.Get(core.PhaseVerify)
		other := prof.Total() - bound - verify
		t.phases[0] += bound
		t.phases[1] += verify
		t.phases[2] += other
		tr.add(span{parent: -1, name: "index.search." + x.name, start: start, end: end, attrs: map[string]float64{
			"phase_bound_us": us(bound), "phase_verify_us": us(verify), "phase_other_us": us(other),
			"candidates": float64(st.Candidates),
		}})
	}
	return d, sameResults(res, want)
}

// inprocBatch runs one SearchBatch call over a query group and checks every
// answer against the linear scan (which per-query Search answers also
// equal, so the two paths agree with each other). It returns the number of
// answers, how many were wrong, and the first mismatch.
func inprocBatch(x *inprocIndex, qs *p2h.Matrix, want [][]p2h.Result, t *inprocTotals, tr *tracer) (n, wrong int, first error) {
	bi, ok := x.ix.(p2h.BatchIndex)
	if !ok {
		return qs.N, qs.N, fmt.Errorf("%s has no SearchBatch", x.name)
	}
	start := time.Now()
	res, _ := bi.SearchBatch(qs, p2h.SearchOptions{K: inprocK})
	end := time.Now()
	t.batchUS = append(t.batchUS, us(end.Sub(start))/float64(qs.N))
	tr.add(span{parent: -1, name: "index.search_batch." + x.name, start: start, end: end,
		attrs: map[string]float64{"queries": float64(qs.N)}})
	for i := range res {
		if err := sameResults(res[i], want[i]); err != nil {
			wrong++
			if first == nil {
				first = fmt.Errorf("%s batch row %d: %w", x.name, i, err)
			}
		}
	}
	return len(res), wrong, first
}

// sameResults requires identical ids and distances in identical order.
func sameResults(got, want []p2h.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d results, want %d", errWrongAnswer, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			return fmt.Errorf("%w: rank %d is (%d, %v), want (%d, %v)",
				errWrongAnswer, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
	return nil
}
