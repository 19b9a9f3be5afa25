package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	p2h "p2h"
)

// mutate-durable: p2h.Server over a dynamic index with background
// compaction and an attached WAL; one open-loop writer beside one
// closed-loop exact reader.
const (
	mutateBase    = 20000 // points in the saved container
	mutatePending = 5000  // inserts pending in its WAL sidecar
	// mutateInsertPool is the corpus share the writer inserts from, in a
	// seed-drawn order (reused if a long run exhausts it).
	mutateInsertPool = 10000
	// mutateRate is the writer's offered rate in operations per second,
	// below its capacity beside one exact reader on a 2-core Intel Xeon host.
	mutateRate      = 150.0
	mutateDeletePct = 10
	mutateK         = 10
	mutateQueries   = 8192 // distinct reader queries, more than a run sends
	mutateSetupReps = 5
	// mutateCompactFraction makes a compaction start every ~250 mutations,
	// so several finish in every run.
	mutateCompactFraction = 0.01
	// The WAL runs without fsync: the benchmark measures the log's CPU and
	// lock cost, not the host's disk.
	mutateSync = p2h.WALSyncNone
)

// writerLog is what the writer had acknowledged.
type writerLog struct {
	live, deleted []int32 // handles inserted and still live; handles deleted
	points        map[int32][]float32
}

func runMutate(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	all := p2h.Dedup(p2h.GenerateDataset("Sift", mutateBase+mutatePending+mutateInsertPool, corpusSeed))
	rows := func(lo, hi int) *p2h.Matrix {
		idx := make([]int32, 0, hi-lo)
		for i := lo; i < hi && i < all.N; i++ {
			idx = append(idx, int32(i))
		}
		return all.SubsetRows(idx)
	}
	base, pending, pool := rows(0, mutateBase), rows(mutateBase, mutateBase+mutatePending), rows(mutateBase+mutatePending, all.N)
	queries := p2h.GenerateQueries(base, mutateQueries, cfg.seed+1)

	// The container plus its pending sidecar, made once and copied per
	// set-up repetition.
	pristine := filepath.Join(cfg.workDir, "pristine.p2h")
	if err := makeDurable(pristine, base, pending); err != nil {
		return nil, err
	}
	replayRecords, err := p2h.CountWALRecords(p2h.WALPath(pristine))
	if err != nil {
		return nil, err
	}

	// Set-up: Open (load plus replay), AttachWAL and NewServer; repeated,
	// and the median reported.
	var srv *p2h.Server
	var wal *p2h.WAL
	var path string
	var setups, replays []float64
	for r := 0; r < mutateSetupReps; r++ {
		if srv != nil {
			srv.Close()
			_ = wal.Close() // a discarded repetition's log
		}
		path = filepath.Join(cfg.workDir, fmt.Sprintf("rep%d.p2h", r))
		for _, p := range [][2]string{{pristine, path}, {p2h.WALPath(pristine), p2h.WALPath(path)}} {
			if err := copyFile(p[0], p[1]); err != nil {
				return nil, err
			}
		}
		loadOnly, err := timeLoad(path)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		ix, err := p2h.Open(path)
		if err != nil {
			return nil, err
		}
		opened := time.Now()
		if wal, err = p2h.AttachWAL(ix, p2h.WALPath(path), mutateSync); err != nil {
			return nil, err
		}
		srv = p2h.NewServer(ix, p2h.ServerOptions{WAL: wal, BackgroundCompaction: true})
		setups = append(setups, time.Since(start).Seconds())
		replays = append(replays, opened.Sub(start).Seconds()-loadOnly)
		cfg.tr.add(span{parent: -1, name: "p2h.open", start: start, end: opened})
	}
	out.metrics["setup_s"] = median(setups)
	out.samples["setup_s"] = len(setups)
	out.metrics["wal.replay_s"] = median(replays)
	out.metrics["wal.replay_records"] = float64(replayRecords)
	baseN, _ := srv.Describe()

	log := &writerLog{points: map[int32][]float32{}}
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	order := make([]int32, pool.N)
	for i, j := range rng.Perm(pool.N) {
		order[i] = int32(j)
	}
	pool = pool.SubsetRows(order)
	nextInsert, nextQuery := 0, 0
	var reads, writes, untracedLat, tracedLat, late []float64
	var steady rates
	compactions0 := srv.Stats().Compactions
	for _, w := range windows(cfg) {
		n := int(mutateRate * w.d.Seconds())
		st0, rec0, sync0 := srv.Stats(), wal.Records(), wal.Syncs()
		var pendingDelta []float64
		var rl []float64
		var samples []sample
		var readFails failures
		start := time.Now()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the reader: closed-loop exact searches until the writer finishes
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := queries.Row(nextQuery % queries.N)
				nextQuery++
				start := time.Now()
				res, _, err := srv.SearchCtx(context.Background(), q, p2h.SearchOptions{K: mutateK})
				end := time.Now()
				w.tr.add(span{parent: -1, name: "server.search", start: start, end: end})
				rl = append(rl, ms(end.Sub(start)))
				samples = append(samples, sample{end: end, answers: 1, ms: ms(end.Sub(start))})
				readFails.attempted++
				switch {
				case errors.Is(err, p2h.ErrOverloaded):
					readFails.shed++
				case errors.Is(err, context.DeadlineExceeded):
					readFails.expired++
				case err != nil:
					readFails.other++
				case !sortedK(res, mutateK):
					readFails.wrong++
				}
				if w.tr != nil {
					pendingDelta = append(pendingDelta, float64(srv.Stats().PendingDelta))
				}
			}
		}()
		var writeFails failures
		wl, wlate, el := openLoop(mutateRate, n, 1, func(int) {
			writeFails.attempted++
			if err := writeOne(srv, log, rng, pool, &nextInsert, w.tr); err != nil {
				writeFails.other++
				fmt.Println("  write failed:", err)
			}
		})
		close(stop)
		wg.Wait()
		out.fails.add(readFails)
		out.fails.add(writeFails)
		reads, writes, late = append(reads, rl...), append(writes, wl...), append(late, wlate...)
		if w.tr == nil {
			for i, l := range wl { // write i was due at start + i/rate
				due := start.Add(time.Duration(float64(i) / mutateRate * float64(time.Second)))
				samples = append(samples, sample{end: due.Add(time.Duration(l * float64(time.Millisecond))), answers: 1, ms: -1})
			}
			untracedLat = rl
			steady = steadyRates(samples, start, el)
			continue
		}
		tracedLat = rl
		st := srv.Stats()
		out.metrics["dynamic.compactions"] = float64(st.Compactions - st0.Compactions)
		out.metrics["dynamic.pending_delta_mean"] = mean(pendingDelta)
		out.metrics["dynamic.pending_delta_max"] = quantile(pendingDelta, 1)
		records, syncs := wal.Records()-rec0, wal.Syncs()-sync0
		out.metrics["wal.records"] = float64(records)
		out.metrics["wal.syncs"] = float64(syncs)
		if syncs > 0 {
			out.metrics["wal.records_per_sync"] = float64(records) / float64(syncs)
		}
		out.metrics["server.search_us"] = mean(rl) * 1000
		out.metrics["bench.late_p99_ms"] = quantile(wlate, 0.99)
		out.metrics["bench.trace_overhead_frac"] = traceOverhead(untracedLat, tracedLat)
	}
	compactions := srv.Stats().Compactions - compactions0
	n, bytes := srv.Describe()
	out.setLatency("latency", reads)
	out.setLatency("insert", writes)
	out.setSteady(steady)
	out.samples["qps"] = len(reads) + len(writes)
	out.metrics["index_bytes_per_point"] = float64(bytes) / float64(n)
	out.notes["writer_rate_per_s"] = mutateRate
	out.notes["wal_sync"] = mutateSync.String()
	out.notes["compactions"] = compactions
	out.notes["late_p99_ms"] = quantile(late, 0.99)
	out.notes["acked_inserts"], out.notes["acked_deletes"] = len(log.points), len(log.deleted)

	// Durability check: a reopen of container plus WAL holds exactly the
	// acknowledged inserts minus the acknowledged deletes.
	srv.Close()
	if err := wal.Close(); err != nil {
		return nil, err
	}
	wrong, err := checkReopen(path, baseN+len(log.points)-len(log.deleted), log, rng)
	if err != nil {
		return nil, err
	}
	out.fails.wrong += int64(wrong)
	if compactions < 3 {
		fmt.Printf("  note: only %d compactions finished in this run\n", compactions)
	}
	return out, nil
}

// makeDurable saves a dynamic container over base and journals pending as
// inserts into its WAL sidecar, leaving them unabsorbed.
func makeDurable(path string, base, pending *p2h.Matrix) error {
	ix, err := p2h.New(base, p2h.Spec{
		Kind: p2h.KindDynamic, Seed: corpusSeed,
		RebuildFraction: 1, CompactFraction: mutateCompactFraction,
	})
	if err != nil {
		return err
	}
	if err := p2h.SaveFile(path, ix); err != nil {
		return err
	}
	wal, err := p2h.AttachWAL(ix, p2h.WALPath(path), mutateSync)
	if err != nil {
		return err
	}
	srv := p2h.NewServer(ix, p2h.ServerOptions{WAL: wal})
	for i := 0; i < pending.N; i++ {
		if _, err := srv.Insert(pending.Row(i)); err != nil {
			srv.Close()
			wal.Close()
			return err
		}
	}
	srv.Close()
	return wal.Close()
}

// timeLoad is the time to load the container alone, without the replay
// Open adds.
func timeLoad(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	start := time.Now()
	if _, err := p2h.Load(f); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// writeOne applies the writer's next operation: mostly an insert of a
// fresh point, sometimes a delete of an acknowledged live handle.
func writeOne(srv *p2h.Server, log *writerLog, rng *rand.Rand, pool *p2h.Matrix, next *int, tr *tracer) error {
	start := time.Now()
	if len(log.live) > 0 && rng.Intn(100) < mutateDeletePct {
		i := rng.Intn(len(log.live))
		h := log.live[i]
		ok, err := srv.Delete(h)
		tr.add(span{parent: -1, name: "server.delete", start: start, end: time.Now()})
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("delete of live handle %d reported no point", h)
		}
		log.live[i] = log.live[len(log.live)-1]
		log.live = log.live[:len(log.live)-1]
		log.deleted = append(log.deleted, h)
		return nil
	}
	p := pool.Row(*next % pool.N)
	*next++
	h, err := srv.Insert(p)
	tr.add(span{parent: -1, name: "server.insert", start: start, end: time.Now()})
	if err != nil {
		return err
	}
	log.live = append(log.live, h)
	log.points[h] = p
	return nil
}

// checkReopen reopens the container with its WAL and checks it holds
// exactly the acknowledged state: the expected point count, every sampled
// live insert findable by a hyperplane through it, and no sampled deleted
// handle so findable. It returns how many checks failed.
func checkReopen(path string, wantN int, log *writerLog, rng *rand.Rand) (int, error) {
	ix, err := p2h.Open(path)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	wrong := 0
	if ix.N() != wantN {
		wrong++
		fmt.Printf("  wrong: reopened index holds %d points, want %d\n", ix.N(), wantN)
	}
	through := func(h int32) bool {
		p := log.points[h]
		normal := make([]float32, len(p))
		var off float64
		for i := range normal {
			normal[i] = float32(rng.NormFloat64())
			off -= float64(normal[i]) * float64(p[i])
		}
		res, _ := ix.Search(p2h.Hyperplane(normal, off), p2h.SearchOptions{K: mutateK})
		for _, r := range res {
			if r.ID == h {
				return true
			}
		}
		return false
	}
	for i, h := range log.live {
		if i%8 == 0 && !through(h) {
			wrong++
			fmt.Printf("  wrong: acknowledged insert %d missing after reopen\n", h)
		}
	}
	for _, h := range log.deleted {
		if through(h) {
			wrong++
			fmt.Printf("  wrong: acknowledged delete %d present after reopen\n", h)
		}
	}
	return wrong, nil
}

// sortedK reports whether res holds k answers in ascending distance.
func sortedK(res []p2h.Result, k int) bool {
	if len(res) != k {
		return false
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			return false
		}
	}
	return true
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
