package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	p2h "p2h"
	"p2h/internal/httpapi"
)

// http-serve: p2hd's stack (httpapi Manager and handler over p2h.Server,
// micro-batching and result cache at their defaults) on a loopback
// listener, driven closed-loop by nproc clients. An open loop with at most
// nproc connections was tried at a quarter and at half of this capacity:
// requests queued behind 16-query batches, and latency swung by 1.5-3x
// between runs on a shared host.
const (
	// httpMaxQueueDelay replaces the 50ms default admission budget. Two
	// client connections never overload the server, but at 50ms admission
	// control sheds the second of two overlapping 16-query batches, so
	// failures would depend on timing. Micro-batching and the cache stay at
	// their defaults.
	httpMaxQueueDelay = 250 * time.Millisecond
	httpHot           = 64 // hot-set size of the repeated (cache-hit) share
	httpIndex         = "msong"
	httpSetupReps     = 5
)

// httpMix is the request mix in percent, indexed by reqKind: fresh exact
// /search, /search repeats from the hot set, fresh /search with a
// ~1%-selectivity tag filter, /search_batch of batchRows fresh queries.
var httpMix = [4]int{50, 25, 15, 10}

type reqKind int

const (
	kindFresh reqKind = iota
	kindHot
	kindFiltered
	kindBatch
)

var kindNames = [...]string{"fresh", "hot", "filtered", "batch"}

// plannedReq is one generated request; rows index the fresh-query pool (or,
// for kindHot, the hot set).
type plannedReq struct {
	kind reqKind
	rows []int
	tag  string
	path string // endpoint suffix: /search or /search_batch
	body []byte
}

// planner draws requests of a mix. Every block of 20 requests holds the
// mix's exact shares (multiples of 5%), so runs with different seeds send
// the same mix. Batches sit at evenly spaced places in the block and the
// other kinds fill the rest in a seeded order: in an open loop, how often
// two batches overlap would otherwise vary from seed to seed and with it
// the p99. Fresh queries are taken in order, so none repeats.
type planner struct {
	rng        *rand.Rand
	mix        [4]int // percent per reqKind
	fresh, hot *p2h.Matrix
	next       int // next fresh row
	block      []reqKind
}

func (p *planner) take(k int) []int {
	rows := make([]int, k)
	for i := range rows {
		rows[i] = p.next % p.fresh.N
		p.next++
	}
	return rows
}

// plan draws the next request and encodes its body.
func (p *planner) plan() (plannedReq, error) {
	if len(p.block) == 0 {
		var rest []reqKind
		for k, pct := range p.mix[:kindBatch] {
			for i := 0; i < pct/5; i++ {
				rest = append(rest, reqKind(k))
			}
		}
		p.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		batches := p.mix[kindBatch] / 5
		for i := 0; i < 20; i++ {
			if batches > 0 && i*batches%20 < batches {
				p.block = append(p.block, kindBatch)
			} else {
				p.block, rest = append(p.block, rest[0]), rest[1:]
			}
		}
	}
	r := plannedReq{kind: p.block[0]}
	p.block = p.block[1:]
	switch r.kind {
	case kindFresh:
		r.rows = p.take(1)
	case kindHot:
		r.rows = []int{p.rng.Intn(p.hot.N)}
	case kindFiltered:
		r.rows, r.tag = p.take(1), tagName(p.rng.Intn(msongTags))
	case kindBatch:
		r.rows = p.take(batchRows)
	}
	var body any
	if r.kind == kindBatch {
		qs := make([][]float32, len(r.rows))
		for j, row := range r.rows {
			qs[j] = p.fresh.Row(row)
		}
		r.path = "/search_batch"
		body = httpapi.BatchSearchRequest{Queries: qs, SearchOptionsJSON: httpapi.SearchOptionsJSON{K: msongK}}
	} else {
		sr := httpapi.SearchRequest{Query: r.query(p.fresh, p.hot), SearchOptionsJSON: httpapi.SearchOptionsJSON{K: msongK}}
		if r.tag != "" {
			sr.Filter = p2h.TagIs(r.tag)
		}
		r.path = "/search"
		body = sr
	}
	var err error
	r.body, err = json.Marshal(body)
	return r, err
}

// query is the single query of a /search request.
func (r *plannedReq) query(fresh, hot *p2h.Matrix) []float32 {
	if r.kind == kindHot {
		return hot.Row(r.rows[0])
	}
	return fresh.Row(r.rows[0])
}

func (r *plannedReq) options() p2h.SearchOptions {
	opts := p2h.SearchOptions{K: msongK}
	if r.tag != "" {
		opts.Pred = p2h.TagIs(r.tag)
	}
	return opts
}

// sentReq is one request as sent and answered.
type sentReq struct {
	plan  *plannedReq
	id    int64
	x     exchange
	ok    bool
	one   httpapi.SearchResponse
	batch httpapi.BatchSearchResponse
}

// results returns the answer rows of a successful request.
func (s *sentReq) results() [][]httpapi.ResultJSON {
	if s.plan.kind == kindBatch {
		return s.batch.Results
	}
	return [][]httpapi.ResultJSON{s.one.Results}
}

// send posts one planned request to base and records its client span.
func send(hc *http.Client, base string, s *sentReq, tr *tracer) {
	var out any = &s.one
	if s.plan.kind == kindBatch {
		out = &s.batch
	}
	s.x = post(hc, base+s.plan.path, s.id, s.plan.body, out)
	tr.add(span{parent: -1, name: "client.request", req: s.id, start: s.x.start, end: s.x.end,
		attrs: map[string]float64{"request_bytes": float64(s.x.reqBytes), "response_bytes": float64(s.x.resBytes)}})
}

// verify checks every successful answer against in-process answers of the
// same query and options on oracle (SearchBatch for batches, whose answers
// equal per-query Search), counting wrong requests into f.
func verify(sent []*sentReq, fresh, hot *p2h.Matrix, oracle p2h.BatchIndex, f *failures) {
	wrong := make([]error, len(sent))
	parallel(len(sent), func(i int) {
		s := sent[i]
		if !s.ok {
			return
		}
		var want [][]p2h.Result
		if s.plan.kind == kindBatch {
			idx := make([]int32, len(s.plan.rows))
			for j, row := range s.plan.rows {
				idx[j] = int32(row)
			}
			want, _ = oracle.SearchBatch(fresh.SubsetRows(idx), s.plan.options())
		} else {
			res, _ := oracle.Search(s.plan.query(fresh, hot), s.plan.options())
			want = [][]p2h.Result{res}
		}
		rows := s.results()
		if len(rows) != len(want) {
			wrong[i] = fmt.Errorf("%w: %d answer rows for %d queries", errWrongAnswer, len(rows), len(want))
			return
		}
		for j, res := range want {
			if err := wireResults(rows[j], res); err != nil {
				wrong[i] = fmt.Errorf("request %d (%s) row %d: %w", s.id, kindNames[s.plan.kind], j, err)
				return
			}
		}
	})
	for _, err := range wrong {
		if err != nil {
			f.wrong++
			if f.wrong <= 5 {
				fmt.Println("  wrong:", err)
			}
		}
	}
}

func runHTTPServe(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	data, attrs := msongData()
	ix, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	if err := p2h.AttachAttributes(ix, attrs); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.workDir, httpIndex+".p2h")
	if err := p2h.SaveFile(path, ix); err != nil {
		return nil, err
	}
	oracle, err := batchIndex(p2h.Open(path))
	if err != nil {
		return nil, err
	}

	hot := p2h.GenerateQueries(data, httpHot, cfg.seed+4)
	fresh := p2h.GenerateQueries(data, freshPool, cfg.seed+5)
	pl := &planner{rng: rand.New(rand.NewSource(cfg.seed + 3)), mix: httpMix, fresh: fresh, hot: hot}

	// Set-up: a manager loads the container and the handler starts
	// listening; repeated, and the median reported.
	var mgr *httpapi.Manager
	var lb *loopback
	var mw *spanHandler
	stop := func() {
		lb.close()
		_ = mgr.Close(context.Background()) // drain errors do not affect the measurement
	}
	var setups []float64
	for r := 0; r < httpSetupReps; r++ {
		if lb != nil {
			stop()
		}
		runtime.GC()
		start := time.Now()
		mgr = httpapi.NewManager(p2h.ServerOptions{MaxQueueDelay: httpMaxQueueDelay}, httpapi.DefaultDrainTimeout)
		if _, _, err := mgr.Load(httpIndex, httpapi.IndexConfig{Path: path}, false); err != nil {
			return nil, err
		}
		mw = &spanHandler{name: "httpapi.handler", next: httpapi.NewHandler(mgr)}
		if lb, err = startLoopback(mw); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer stop()
	out.metrics["setup_s"] = median(setups)
	out.samples["setup_s"] = len(setups)

	hc := newClient()
	base := lb.url + "/v1/indexes/" + httpIndex
	var sent []*sentReq
	var lat, untracedLat, tracedLat []float64
	var steady rates
	var before, after httpapi.IndexInfoResponse
	var traced []*sentReq
	var id int64
	for _, w := range windows(cfg) {
		mw.tr.Store(w.tr)
		if err := getJSON(hc, base, &before); err != nil {
			return nil, err
		}
		start := time.Now()
		win, el, err := closedLoop(hc, base, pl, runtime.NumCPU(), w.d, &id, w.tr)
		if err != nil {
			return nil, err
		}
		if err := getJSON(hc, base, &after); err != nil {
			return nil, err
		}
		mw.tr.Store(nil)
		for _, s := range win {
			s.ok = out.fails.classify(s.x)
		}
		wl := serviceTimes(win)
		samples := requestSamples(win, wl)
		sent = append(sent, win...)
		lat = append(lat, latencies(samples)...)
		if w.tr == nil {
			untracedLat = wl
			steady = steadyRates(samples, start, el)
		} else {
			tracedLat, traced = wl, win
		}
	}
	verify(sent, fresh, hot, oracle, &out.fails)

	out.setLatency("latency", lat)
	out.setSteady(steady)
	out.samples["qps"] = len(sent)
	out.metrics["index_bytes_per_point"] = float64(after.IndexBytes) / float64(after.N)
	out.notes["clients"] = runtime.NumCPU()
	out.notes["n"], out.notes["dim"] = data.N, data.D
	if pl.next > fresh.N {
		out.notes["fresh_pool_wrapped"] = true
	}

	if cfg.tr != nil {
		out.metrics["bench.trace_overhead_frac"] = traceOverhead(untracedLat, tracedLat)
		if err := httpLayers(cfg.tr, traced, fresh, hot, oracle, before, after, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// requestSamples pairs each request's completion with its latency lat[i].
// Only successful requests count as answers, and only single-query
// requests are latency samples: the search latency metrics are those of
// one query, as on inproc-exact; batches count in qps and have their own
// per-layer round-trip metric.
func requestSamples(win []*sentReq, lat []float64) []sample {
	samples := make([]sample, len(win))
	for i, s := range win {
		samples[i] = sample{end: s.x.end, ms: lat[i]}
		if s.plan.kind == kindBatch {
			samples[i].ms = -1
		}
		if s.ok {
			samples[i].answers = 1
		}
	}
	return samples
}

// serviceTimes is each request's time from send to decoded answer, in ms.
func serviceTimes(win []*sentReq) []float64 {
	xs := make([]float64, len(win))
	for i, s := range win {
		xs[i] = ms(s.x.end.Sub(s.x.start))
	}
	return xs
}

// httpLayers derives the httpapi, server and attr metrics of the traced
// window. To split the handler's time into codec and server, the window's
// /search requests are replayed in order against an in-process p2h.Server
// over the same container; each replay is a server.search span under the
// request's handler span.
func httpLayers(tr *tracer, win []*sentReq, fresh, hot *p2h.Matrix, ix p2h.Index, before, after httpapi.IndexInfoResponse, out *outcome) error {
	tr.linkByReq("client.request", "httpapi.handler")
	handlers := tr.byReq("httpapi.handler")
	srv := p2h.NewServer(ix, p2h.ServerOptions{})
	defer srv.Close()
	ctx := context.Background()
	for _, s := range win {
		h, ok := handlers[s.id]
		if !ok || s.plan.kind == kindBatch || !s.ok {
			continue
		}
		start := time.Now()
		if _, _, err := srv.SearchCtx(ctx, s.plan.query(fresh, hot), s.plan.options()); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		tr.add(span{parent: h.id, name: "server.search", req: s.id, start: start, end: time.Now(), replay: true})
	}

	servers := tr.byReq("server.search")
	var rtt, hdl [2][]float64 // by endpoint: search, search_batch
	var wire, codec, srvUS, filtered, reqB, resB, skipN, skipP []float64
	for _, s := range win {
		h, ok := handlers[s.id]
		if !ok || !s.ok {
			continue
		}
		e := 0
		if s.plan.kind == kindBatch {
			e = 1
		}
		r := us(s.x.end.Sub(s.x.start))
		rtt[e] = append(rtt[e], r)
		hdl[e] = append(hdl[e], us(h.dur()))
		wire = append(wire, r-us(h.dur()))
		reqB, resB = append(reqB, float64(s.x.reqBytes)), append(resB, float64(s.x.resBytes))
		if sv, ok := servers[s.id]; ok {
			codec = append(codec, us(h.dur())-us(sv.dur()))
			srvUS = append(srvUS, us(sv.dur()))
		}
		if s.plan.kind == kindFiltered {
			filtered = append(filtered, us(h.dur()))
			skipN = append(skipN, float64(s.one.Stats.FilterSkippedNodes))
			skipP = append(skipP, float64(s.one.Stats.FilterSkippedPoints))
		}
	}
	for e, name := range []string{"search", "search_batch"} {
		out.metrics["httpapi.rtt_us."+name] = mean(rtt[e])
		out.metrics["httpapi.handler_us."+name] = mean(hdl[e])
	}
	out.metrics["httpapi.wire_us"] = mean(wire)
	out.metrics["httpapi.codec_us"] = mean(codec)
	out.metrics["httpapi.request_bytes"] = mean(reqB)
	out.metrics["httpapi.response_bytes"] = mean(resB)
	out.metrics["server.search_us"] = mean(srvUS)
	out.metrics["attr.filtered_handler_us"] = mean(filtered)
	out.metrics["attr.skipped_nodes_per_query"] = mean(skipN)
	out.metrics["attr.skipped_points_per_query"] = mean(skipP)
	serverCounters(before.Stats, after.Stats, out)
	return nil
}

// serverCounters records the p2h.Server counter deltas of a window.
func serverCounters(b, a httpapi.ServerStatsJSON, out *outcome) {
	hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
	if hits+misses > 0 {
		out.metrics["server.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	if batches := a.Batches - b.Batches; batches > 0 {
		out.metrics["server.mean_microbatch"] = float64(a.Queries-b.Queries) / float64(batches)
	}
	out.metrics["server.shed"] = float64(a.Shed - b.Shed)
	out.metrics["server.expired"] = float64(a.Expired - b.Expired)
}
