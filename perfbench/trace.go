package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one request share req; parent is the id of the span that
// caused this one (-1 for a root).
type span struct {
	id, parent int
	name       string
	req        int64
	start, end time.Time
	// replay marks a logical child timed outside its parent's interval (the
	// in-process replay of an HTTP request): its whole duration counts
	// against the parent's self time.
	replay bool
	attrs  map[string]float64
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records s and returns its id (-1 on a nil tracer).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.id = len(t.spans)
	t.spans = append(t.spans, s)
	return s.id
}

// setParent links span id under parent after the fact.
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	t.spans[id].parent = parent
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover (replayed children count in full).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var covered time.Duration
		var ivs [][2]time.Time
		for _, c := range kids[s.id] {
			if c.replay {
				covered += c.dur()
				continue
			}
			a, b := c.start, c.end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				ivs = append(ivs, [2]time.Time{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0].Before(ivs[y][0]) })
		var curA, curB time.Time
		for j, iv := range ivs {
			if j == 0 || iv[0].After(curB) {
				covered += curB.Sub(curA)
				curA, curB = iv[0], iv[1]
			} else if iv[1].After(curB) {
				curB = iv[1]
			}
		}
		covered += curB.Sub(curA)
		self[i] = max(s.dur()-covered, 0)
	}
	return self
}

// byReq maps request ids to the spans of one name.
func (t *tracer) byReq(name string) map[int64]span {
	m := map[int64]span{}
	for _, s := range t.snapshot() {
		if s.name == name {
			m[s.req] = s
		}
	}
	return m
}

// linkByReq makes each childName span a child of the parentName span of
// the same request.
func (t *tracer) linkByReq(parentName, childName string) {
	parents := t.byReq(parentName)
	for _, c := range t.snapshot() {
		if p, ok := parents[c.req]; ok && c.name == childName && c.parent < 0 {
			t.setParent(c.id, p.id)
		}
	}
}

// linkByContainment makes each childName span a child of the parentName
// span whose interval contains it, for layers whose calls carry no request
// id; with one request in flight at a time the containment is unambiguous.
func (t *tracer) linkByContainment(parentName, childName string) {
	spans := t.snapshot()
	var parents []span
	for _, s := range spans {
		if s.name == parentName {
			parents = append(parents, s)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].start.Before(parents[j].start) })
	for _, c := range spans {
		if c.name != childName || c.parent >= 0 {
			continue
		}
		i := sort.Search(len(parents), func(i int) bool { return parents[i].start.After(c.start) }) - 1
		if i >= 0 && !parents[i].end.Before(c.end) {
			t.setParent(c.id, parents[i].id)
		}
	}
}

// selfTimeTable renders count, mean duration and mean self time per span
// name.
func (t *tracer) selfTimeTable() string {
	spans := t.snapshot()
	self := selfTimes(spans)
	type row struct {
		n         int
		dur, self time.Duration
	}
	rows := map[string]*row{}
	for i, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &row{}
			rows[s.name] = r
		}
		r.n++
		r.dur += s.dur()
		r.self += self[i]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer self time (traced window)\n  %-28s %8s %14s %14s\n", "span", "count", "mean_us", "self_mean_us")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(&b, "  %-28s %8d %14.1f %14.1f\n", n, r.n,
			us(r.dur)/float64(r.n), us(r.self)/float64(r.n))
	}
	return b.String()
}

// writeSpans writes the recorded spans as JSON lines under .bench_build.
func writeSpans(t *tracer, workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	spans := t.snapshot()
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].start
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(map[string]any{
			"id": s.id, "parent": s.parent, "name": s.name, "req": s.req,
			"start_us": us(s.start.Sub(t0)), "end_us": us(s.end.Sub(t0)),
			"replay": s.replay, "attrs": s.attrs,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
