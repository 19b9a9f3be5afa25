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
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	p2h "p2h"
	"p2h/internal/httpapi"
)

// The http-serve and routed workloads share one data set: the Msong
// surrogate (d=420, so JSON bodies are large), every point carrying one of
// msongTags tags, so a single-tag filter selects about 1% of the points.
const (
	msongN    = 10000
	msongTags = 100
	msongK    = 10
	batchRows = 16
	// freshPool is the number of fresh queries drawn per run: enough for a
	// 15 s http-serve run at over 900 requests/s. A run that needs more
	// reuses them, which turns some into cache hits, and notes that it did.
	freshPool = 32768
)

// reqHeader carries the benchmark's request id to the handler middleware.
const reqHeader = "X-Perfbench-Req"

func msongData() (*p2h.Matrix, []p2h.PointAttrs) {
	data := p2h.Dedup(p2h.GenerateDataset("Msong", msongN, corpusSeed))
	rng := rand.New(rand.NewSource(corpusSeed + 7))
	attrs := make([]p2h.PointAttrs, data.N)
	for i := range attrs {
		attrs[i] = p2h.PointAttrs{Tags: []string{tagName(rng.Intn(msongTags))}}
	}
	return data, attrs
}

func tagName(i int) string { return "t" + strconv.Itoa(i) }

// loopback is an HTTP server on a loopback listener in this process.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the server and waits for its serve loop to exit.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// spanHandler records one span per POST (search) request around an HTTP
// handler, named name and carrying the client's request id; health probes
// and counter reads are not spans. The tracer is switched per window; with
// none set the wrapper costs one atomic load.
type spanHandler struct {
	name string
	tr   atomic.Pointer[tracer]
	next http.Handler
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil || r.Method != http.MethodPost {
		s.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	s.next.ServeHTTP(w, r)
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	tr.add(span{parent: -1, name: s.name, req: req, start: start, end: time.Now()})
}

// newClient returns an HTTP client holding at most nproc connections.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
}

// exchange is one client request as the benchmark saw it.
type exchange struct {
	status             int
	reqBytes, resBytes int
	err                error // transport or decode failure
	start, end         time.Time
}

// post sends body and decodes a 200 answer into out.
func post(hc *http.Client, url string, req int64, body []byte, out any) exchange {
	x := exchange{reqBytes: len(body), start: time.Now()}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		x.err = err
		return x
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	resp, err := hc.Do(hr)
	if err != nil {
		x.err, x.end = err, time.Now()
		return x
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	x.status, x.resBytes = resp.StatusCode, len(raw)
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, out)
	}
	x.err, x.end = err, time.Now()
	return x
}

// classify counts one exchange into f; it reports whether it succeeded.
func (f *failures) classify(x exchange) bool {
	f.attempted++
	switch {
	case x.err != nil && x.status == 0:
		f.transport++
	case x.status == http.StatusTooManyRequests:
		f.shed++
	case x.status == http.StatusGatewayTimeout:
		f.expired++
	case x.status != http.StatusOK || x.err != nil:
		f.other++
	default:
		return true
	}
	return false
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// wireResults compares an HTTP answer with the in-process one.
func wireResults(got []httpapi.ResultJSON, want []p2h.Result) error {
	res := make([]p2h.Result, len(got))
	for i, r := range got {
		res[i] = p2h.Result{ID: r.ID, Dist: r.Dist}
	}
	return sameResults(res, want)
}

// parallel runs fn(i) for i in [0, n) on nproc goroutines and waits.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// closedLoop keeps clients requests in flight until d has passed: each
// client sends the planner's next request as soon as its previous one is
// answered. Request ids continue from *id. It returns the requests in
// completion order and the time the loop ran.
func closedLoop(hc *http.Client, base string, pl *planner, clients int, d time.Duration, id *int64, tr *tracer) ([]*sentReq, time.Duration, error) {
	var mu sync.Mutex // guards pl, id, sent and err
	var sent []*sentReq
	var err error
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				r, perr := pl.plan()
				*id++
				s := &sentReq{plan: &r, id: *id}
				if perr != nil {
					err = perr
				}
				mu.Unlock()
				if perr != nil {
					return
				}
				send(hc, base, s, tr)
				mu.Lock()
				sent = append(sent, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sent, time.Since(start), err
}

// openLoop offers n requests at a fixed rate to workers goroutines. It
// returns each request's latency measured from its due time and how late the
// generator handed it to a worker, both in ms.
func openLoop(rate float64, n, workers int, do func(i int)) (lat, late []float64, elapsed time.Duration) {
	lat, late = make([]float64, n), make([]float64, n)
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				late[i] = ms(time.Since(due(i)))
				do(i)
				lat[i] = ms(time.Since(due(i)))
			}
		}()
	}
	for i := 0; i < n; i++ {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	return lat, late, time.Since(start)
}

// batchIndex narrows an index to the batch surface the tree kinds
// implement; it takes a constructor's results directly.
func batchIndex(ix p2h.Index, err error) (p2h.BatchIndex, error) {
	if err != nil {
		return nil, err
	}
	bi, ok := ix.(p2h.BatchIndex)
	if !ok {
		return nil, fmt.Errorf("%s index has no SearchBatch", p2h.KindOf(ix))
	}
	return bi, nil
}
