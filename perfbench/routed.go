package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	p2h "p2h"
	"p2h/internal/cluster"
	"p2h/internal/httpapi"
)

// routed: the cluster router in front of two in-process member stacks, each
// primary for one shard of the http-serve data and replica of the other (as
// p2htool cluster split lays them out by default), driven closed-loop by
// one client.
const (
	routedShards    = 2
	routedSetupReps = 5
)

// routedMix is the request mix in percent, indexed by reqKind: fresh exact
// /search, no hot-set repeats, fresh filtered /search, /search_batch.
var routedMix = [4]int{60, 0, 25, 15}

// routedStack is the running cluster: member daemons and the router.
type routedStack struct {
	mgrs       []*httpapi.Manager
	members    []*loopback
	memberSpan []*spanHandler
	rt         *cluster.Router
	router     *loopback
	routerSpan *spanHandler
}

func (s *routedStack) close() {
	if s.router != nil {
		s.router.close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	for _, lb := range s.members {
		lb.close()
	}
	for _, m := range s.mgrs {
		_ = m.Close(context.Background()) // drain errors do not affect the measurement
	}
}

func (s *routedStack) setTracer(tr *tracer) {
	s.routerSpan.tr.Store(tr)
	for _, m := range s.memberSpan {
		m.tr.Store(tr)
	}
}

// startRouted loads the shard containers into the member managers, starts
// the router and waits until its prober has found every member healthy.
func startRouted(paths []string, plan [][]int32) (*routedStack, error) {
	s := &routedStack{}
	ccfg := cluster.Config{Members: map[string]cluster.MemberConfig{}, Indexes: map[string]cluster.IndexMap{}}
	var im cluster.IndexMap
	for mi := 0; mi < routedShards; mi++ {
		mgr := httpapi.NewManager(p2h.ServerOptions{}, httpapi.DefaultDrainTimeout)
		s.mgrs = append(s.mgrs, mgr)
		for si := range paths {
			if _, _, err := mgr.Load(shardName(si), httpapi.IndexConfig{Path: paths[si]}, false); err != nil {
				return s, err
			}
		}
		sh := &spanHandler{name: "httpapi.handler", next: httpapi.NewHandler(mgr)}
		lb, err := startLoopback(sh)
		if err != nil {
			return s, err
		}
		s.members, s.memberSpan = append(s.members, lb), append(s.memberSpan, sh)
		ccfg.Members[memberName(mi)] = cluster.MemberConfig{URL: lb.url}
	}
	for si := range paths {
		im.Shards = append(im.Shards, cluster.ShardConfig{
			Index:    shardName(si),
			Primary:  memberName(si),
			Replicas: []string{memberName((si + 1) % routedShards)},
			IDs:      plan[si],
		})
	}
	ccfg.Indexes[httpIndex] = im
	rt, err := cluster.NewRouter(ccfg)
	if err != nil {
		return s, err
	}
	s.rt = rt
	rt.Start()
	s.routerSpan = &spanHandler{name: "cluster.router", next: cluster.NewHandler(rt)}
	if s.router, err = startLoopback(s.routerSpan); err != nil {
		return s, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		h, _ := rt.Health()
		healthy := 0
		for _, m := range h.Members {
			if m.State == "healthy" {
				healthy++
			}
		}
		if healthy == routedShards {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("router: members not healthy after 10s: %+v", h.Members)
		}
	}
}

func shardName(si int) string  { return fmt.Sprintf("%s-s%d", httpIndex, si) }
func memberName(mi int) string { return fmt.Sprintf("m%d", mi) }

func runRouted(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	data, attrs := msongData()
	spec := p2h.Spec{Kind: p2h.KindSharded, Shards: routedShards, Seed: corpusSeed}
	plan := p2h.ShardPlan(data, spec)
	paths := make([]string, len(plan))
	for si, part := range plan {
		// Built exactly as the sharded kind builds shard si.
		ix, err := p2h.New(data.SubsetRows(part), p2h.Spec{Kind: p2h.KindBCTree, LeafSize: spec.LeafSize, Seed: spec.Seed + int64(si) + 1})
		if err != nil {
			return nil, err
		}
		sub := make([]p2h.PointAttrs, len(part))
		for i, row := range part {
			sub[i] = attrs[row]
		}
		if err := p2h.AttachAttributes(ix, sub); err != nil {
			return nil, err
		}
		paths[si] = filepath.Join(cfg.workDir, shardName(si)+".p2h")
		if err := p2h.SaveFile(paths[si], ix); err != nil {
			return nil, err
		}
	}
	oracle, err := batchIndex(p2h.New(data, spec))
	if err != nil {
		return nil, err
	}
	if err := p2h.AttachAttributes(oracle, attrs); err != nil {
		return nil, err
	}
	fresh := p2h.GenerateQueries(data, freshPool, cfg.seed+5)

	// Set-up: members load their shards, the router starts and probes them
	// healthy; repeated, and the median reported.
	var st *routedStack
	var setups []float64
	for r := 0; r < routedSetupReps; r++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		start := time.Now()
		st, err = startRouted(paths, plan)
		if err != nil {
			st.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	out.metrics["setup_s"] = median(setups)
	out.samples["setup_s"] = len(setups)

	hc := newClient()
	base := st.router.url + "/v1/indexes/" + httpIndex
	pl := &planner{rng: rand.New(rand.NewSource(cfg.seed + 3)), mix: routedMix, fresh: fresh, hot: fresh}
	var sent, traced []*sentReq
	var lat, untracedLat, tracedLat []float64
	var steady rates
	var id int64
	for _, w := range windows(cfg) {
		st.setTracer(w.tr)
		before, err := routerCounters(hc, st.router.url)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		win, el, err := closedLoop(hc, base, pl, 1, w.d, &id, w.tr)
		if err != nil {
			return nil, err
		}
		after, err := routerCounters(hc, st.router.url)
		if err != nil {
			return nil, err
		}
		st.setTracer(nil)
		for _, s := range win {
			s.ok = out.fails.classify(s.x)
		}
		sent = append(sent, win...)
		wl := serviceTimes(win)
		samples := requestSamples(win, wl)
		lat = append(lat, latencies(samples)...)
		if w.tr == nil {
			untracedLat = wl
			steady = steadyRates(samples, start, el)
			continue
		}
		tracedLat, traced = wl, win
		out.metrics["cluster.hedges_per_query"] = (after["p2hd_router_hedges_total"] - before["p2hd_router_hedges_total"]) / float64(len(win))
		out.metrics["cluster.fallbacks"] = after["p2hd_router_fallbacks_total"] - before["p2hd_router_fallbacks_total"]
	}
	verify(sent, fresh, fresh, oracle, &out.fails)

	out.setLatency("latency", lat)
	out.setSteady(steady)
	out.samples["qps"] = len(sent)
	var bytes int64
	for si := range plan {
		info, err := st.mgrs[0].Get(shardName(si))
		if err != nil {
			return nil, err
		}
		bytes += info.IndexBytes
	}
	out.metrics["index_bytes_per_point"] = float64(bytes) / float64(data.N)
	out.notes["n"], out.notes["dim"], out.notes["shards"] = data.N, data.D, routedShards
	if pl.next > fresh.N {
		out.notes["fresh_pool_wrapped"] = true
	}

	if cfg.tr != nil {
		out.metrics["bench.trace_overhead_frac"] = traceOverhead(untracedLat, tracedLat)
		routedLayers(cfg.tr, traced, out)
	}
	return out, nil
}

// routedLayers derives the cluster, httpapi and attr metrics of the traced
// window. Member handler spans carry no request id, so they are linked to
// the router span that contains them: the client keeps one request in
// flight.
func routedLayers(tr *tracer, win []*sentReq, out *outcome) {
	tr.linkByReq("client.request", "cluster.router")
	tr.linkByContainment("cluster.router", "httpapi.handler")
	spans := tr.snapshot()
	slowest := map[int]time.Duration{}
	members := map[int][]time.Duration{}
	for _, s := range spans {
		if s.name == "httpapi.handler" && s.parent >= 0 {
			members[s.parent] = append(members[s.parent], s.dur())
			slowest[s.parent] = max(slowest[s.parent], s.dur())
		}
	}
	routers := tr.byReq("cluster.router")
	var rtt, hdl [2][]float64
	var routerUS, memberUS, fanout, wire, filtered, reqB, resB, skipN, skipP []float64
	memberCalls := 0
	for _, s := range win {
		r, ok := routers[s.id]
		if !ok || !s.ok {
			continue
		}
		e := 0
		if s.plan.kind == kindBatch {
			e = 1
		}
		rt := us(s.x.end.Sub(s.x.start))
		rtt[e] = append(rtt[e], rt)
		routerUS = append(routerUS, us(r.dur()))
		wire = append(wire, rt-us(r.dur()))
		reqB, resB = append(reqB, float64(s.x.reqBytes)), append(resB, float64(s.x.resBytes))
		for _, d := range members[r.id] {
			memberUS = append(memberUS, us(d))
			hdl[e] = append(hdl[e], us(d))
		}
		memberCalls += len(members[r.id])
		if d, ok := slowest[r.id]; ok {
			fanout = append(fanout, us(r.dur()-d))
		}
		if s.plan.kind == kindFiltered {
			filtered = append(filtered, us(r.dur()))
			skipN = append(skipN, float64(s.one.Stats.FilterSkippedNodes))
			skipP = append(skipP, float64(s.one.Stats.FilterSkippedPoints))
		}
	}
	out.metrics["cluster.router_handler_us"] = mean(routerUS)
	out.metrics["cluster.member_handler_us"] = mean(memberUS)
	out.metrics["cluster.fanout_us"] = mean(fanout)
	out.metrics["cluster.member_requests_per_query"] = float64(memberCalls) / float64(max(len(routerUS), 1))
	for e, name := range []string{"search", "search_batch"} {
		out.metrics["httpapi.rtt_us."+name] = mean(rtt[e])
		out.metrics["httpapi.handler_us."+name] = mean(hdl[e])
	}
	out.metrics["httpapi.wire_us"] = mean(wire)
	out.metrics["httpapi.request_bytes"] = mean(reqB)
	out.metrics["httpapi.response_bytes"] = mean(resB)
	out.metrics["attr.filtered_handler_us"] = mean(filtered)
	out.metrics["attr.skipped_nodes_per_query"] = mean(skipN)
	out.metrics["attr.skipped_points_per_query"] = mean(skipP)
}

// routerCounters scrapes the router's unlabelled /metrics counters.
func routerCounters(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, v, ok := strings.Cut(line, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				m[name] = f
			}
		}
	}
	return m, sc.Err()
}
