package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"blobdb/internal/buffer"
	"blobdb/internal/core"
	"blobdb/internal/storage"
)

// minTail is the number of samples that must lie beyond a percentile for
// it to be reported.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses, naming the sample count, when fewer than minTail samples lie
// beyond it. It is the one percentile helper for every op type.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-rank, 0), minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tick is the process's op count, CPU time and heap allocation at one
// moment of a timed phase.
type tick struct {
	at    time.Time
	ops   int64
	cpu   time.Duration
	alloc uint64
}

func readTick(ops int64) tick {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tick{at: time.Now(), ops: ops, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: heapAllocBytes()}
}

// perSecond returns the median over the phase's one-second windows of
// ops/s, CPU µs per op and heap KiB allocated per op. Windows shorter
// than half a second (the phase's last, cut by its end) are left out.
func perSecond(ticks []tick) (opsPerSec, cpuUsPerOp, allocKiBPerOp float64) {
	var rate, cpu, alloc []float64
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		dt, n := b.at.Sub(a.at).Seconds(), float64(b.ops-a.ops)
		if dt < 0.5 || n == 0 {
			continue
		}
		rate = append(rate, n/dt)
		cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/n)
		alloc = append(alloc, float64(b.alloc-a.alloc)/kib/n)
	}
	return median(rate), median(cpu), median(alloc)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a per-PUT figure on a GET-only phase).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is a snapshot of every public counter the benchmark reads; two
// snapshots bracket a phase.
type counters struct {
	wall           time.Time
	dev            storage.StatsSnapshot
	syncs          int64
	pool           buffer.StatsSnapshot
	alias          buffer.AliasStats
	queue          storage.SubQueueStats
	walFlushes     int64
	walBytes       int64
	ckpts          int64
	commitFlushes  int64
	commitTxns     int64
	busy, blocked  time.Duration
	dedup          core.DedupStats
	allocs, reuses uint64
	written        [numRegions]int64 // traced device only
	zeroCopy       int64
	rejected       int64
	shardRejected  int64
	shed           int64
	cpu            time.Duration
	totalAlloc     uint64
	numGC          uint32
	gcCPU, allCPU  float64
}

// serverVars is the part of the blobserver's /debug/vars the benchmark
// reads.
type serverVars struct {
	Blobserver struct {
		ReadPath struct {
			ZeroCopy int64 `json:"zero_copy_responses"`
		} `json:"read_path"`
		Admission struct {
			Rejected      int64 `json:"rejected"`
			ShardRejected int64 `json:"shard_rejected"`
		} `json:"admission"`
	} `json:"blobserver"`
}

func (e *engine) snapshot() (counters, error) {
	db := e.db
	c := counters{
		wall:    time.Now(),
		dev:     e.fdev.Stats().Snapshot(),
		syncs:   e.fdev.syncs.Load(),
		pool:    db.Pool().Stats().Snapshot(),
		alias:   db.AliasManager().Stats(),
		queue:   db.Queue().Stats(),
		busy:    db.CommitterBusy(),
		dedup:   db.DedupStats(),
		ckpts:   db.WAL().Checkpoints(),
		blocked: db.CommitBlocked(),
	}
	c.walFlushes, c.walBytes = db.WAL().Flushes(), db.WAL().BytesLogged()
	c.commitFlushes, c.commitTxns = db.CommitBatchStats()
	as := db.Allocator().Stats()
	c.allocs, c.reuses = as.Allocs, as.Reuses
	if e.tdev != nil {
		for r := range c.written {
			c.written[r] = e.tdev.written[r].Load()
		}
	}
	for _, sh := range e.cluster.Shards() {
		c.shed += sh.Shed()
	}
	rec := httptest.NewRecorder()
	e.bs.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var v serverVars
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return c, fmt.Errorf("read /debug/vars: %w", err)
	}
	c.zeroCopy = v.Blobserver.ReadPath.ZeroCopy
	c.rejected = v.Blobserver.Admission.Rejected
	c.shardRejected = v.Blobserver.Admission.ShardRejected

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.numGC = ms.TotalAlloc, ms.NumGC
	c.gcCPU, c.allCPU = cpuClasses()
	return c, nil
}

func cpuClasses() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// heapAllocBytes is the cumulative heap allocation, cheap enough to read
// around every engine-API op (it lags by at most a few spans per op, so
// per-op figures are exact only in aggregate).
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// metricSpec names a reported metric and its unit; the lists below are
// the ones BENCHMARK.json declares.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"get_p50_ms", "ms"},
	{"get_p99_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"put_p995_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"cpu_us_per_op", "us"},
	{"alloc_kb_per_op", "KiB"},
	{"space_amp", "ratio"},
	{"write_amp", "ratio"},
	{"recovery_s", "s"},
}

var perLayer = []metricSpec{
	{"blobserver.get_handler_us", "us"},
	{"blobclient.get_wire_us", "us"},
	{"blobserver.tax_get_us", "us"},
	{"blobserver.put_handler_us", "us"},
	{"blobserver.put_peak_buffered_kib", "KiB"},
	{"blobserver.zero_copy_per_get", "ratio"},
	{"blobserver.admission_rejected", "count"},
	{"shard.shed", "count"},
	{"core.get_us", "us"},
	{"core.blob_state_us", "us"},
	{"core.read_blob_us", "us"},
	{"core.alloc_kb_per_get", "KiB"},
	{"core.put_us", "us"},
	{"blob.write_us", "us"},
	{"core.commit_wait_us", "us"},
	{"core.alloc_kb_per_put", "KiB"},
	{"core.txns_per_flush", "count"},
	{"core.committer_busy_share", "ratio"},
	{"core.commit_blocked_us_per_put", "us"},
	{"core.dedup_hits_per_put", "ratio"},
	{"core.ledger_deltas_per_put", "count"},
	{"core.recovery_validated_mib", "MiB"},
	{"core.recovery_redone_records", "count"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.evictions_per_get", "count"},
	{"buffer.fix_batches_per_get", "count"},
	{"buffer.segs_per_fix_batch", "count"},
	{"buffer.coalesces", "count"},
	{"buffer.lock_wait_us_per_op", "us"},
	{"buffer.alias_shared_per_get", "ratio"},
	{"buffer.alias_cas_retries", "count"},
	{"buffer.writebacks_per_op", "count"},
	{"storage.read_kib_per_get", "KiB"},
	{"storage.vec_reads_per_get", "count"},
	{"storage.read_busy_us_per_get", "us"},
	{"storage.write_busy_us_per_put", "us"},
	{"storage.sync_busy_us_per_put", "us"},
	{"storage.syncs_per_put", "count"},
	{"storage.heap_write_kib_per_put_kib", "ratio"},
	{"storage.queue_submit_waits", "count"},
	{"wal.bytes_per_commit", "B"},
	{"wal.device_kib_per_commit", "KiB"},
	{"wal.flushes_per_commit", "count"},
	{"wal.checkpoints", "count"},
	{"wal.ckpt_write_mib", "MiB"},
	{"extent.reuse_ratio", "ratio"},
	{"extent.frag_score", "ratio"},
	{"go.gc_per_kop", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead", "ratio"},
	{"bench.get_samples", "count"},
	{"bench.put_samples", "count"},
}

// counterMetrics derives the per-layer figures that come from public
// Stats() calls over one phase (a to b) that issued s.
func counterMetrics(m map[string]float64, a, b counters, s *samples, e *engine) {
	gets, puts, ops := float64(len(s.get)), float64(len(s.put)), float64(s.ops)
	putKiB := float64(s.putBytes) / kib
	commits := float64(b.commitTxns - a.commitTxns)
	pool := func(f func(buffer.StatsSnapshot) int64) float64 { return float64(f(b.pool) - f(a.pool)) }
	dev := func(f func(storage.StatsSnapshot) int64) float64 { return float64(f(b.dev) - f(a.dev)) }

	m["blobserver.put_peak_buffered_kib"] = float64(e.bs.PutPeakBufferedBytes()) / kib
	m["blobserver.zero_copy_per_get"] = ratio(float64(b.zeroCopy-a.zeroCopy), gets)
	m["blobserver.admission_rejected"] = float64(b.rejected - a.rejected)
	m["shard.shed"] = float64(b.shed-a.shed) + float64(b.shardRejected-a.shardRejected)

	m["core.txns_per_flush"] = ratio(commits, float64(b.commitFlushes-a.commitFlushes))
	m["core.committer_busy_share"] = ratio(float64(b.busy-a.busy), float64(b.wall.Sub(a.wall)))
	m["core.commit_blocked_us_per_put"] = ratio(float64(b.blocked-a.blocked)/1e3, puts)
	m["core.dedup_hits_per_put"] = ratio(float64(b.dedup.Hits-a.dedup.Hits), puts)
	m["core.ledger_deltas_per_put"] = ratio(float64(b.dedup.Increments-a.dedup.Increments+b.dedup.Decrements-a.dedup.Decrements), puts)

	hits := pool(func(p buffer.StatsSnapshot) int64 { return p.Hits })
	misses := pool(func(p buffer.StatsSnapshot) int64 { return p.Misses })
	batches := pool(func(p buffer.StatsSnapshot) int64 { return p.FixBatches })
	m["buffer.hit_ratio"] = ratio(hits, hits+misses)
	m["buffer.evictions_per_get"] = ratio(pool(func(p buffer.StatsSnapshot) int64 { return p.Evictions }), gets)
	m["buffer.fix_batches_per_get"] = ratio(batches, gets)
	m["buffer.segs_per_fix_batch"] = ratio(pool(func(p buffer.StatsSnapshot) int64 { return p.ReadVecSegments }), batches)
	m["buffer.coalesces"] = pool(func(p buffer.StatsSnapshot) int64 { return p.Coalesces })
	m["buffer.lock_wait_us_per_op"] = ratio(pool(func(p buffer.StatsSnapshot) int64 { return p.LockWaitNs })/1e3, ops)
	m["buffer.alias_shared_per_get"] = ratio(float64(b.alias.SharedUses-a.alias.SharedUses), gets)
	m["buffer.alias_cas_retries"] = float64(b.alias.CASRetries - a.alias.CASRetries)
	m["buffer.writebacks_per_op"] = ratio(pool(func(p buffer.StatsSnapshot) int64 { return p.Writebacks }), ops)

	m["storage.read_kib_per_get"] = ratio(dev(func(d storage.StatsSnapshot) int64 { return d.BytesRead })/kib, gets)
	m["storage.vec_reads_per_get"] = ratio(dev(func(d storage.StatsSnapshot) int64 { return d.VecReads }), gets)
	m["storage.syncs_per_put"] = ratio(float64(b.syncs-a.syncs), puts)
	m["storage.heap_write_kib_per_put_kib"] = ratio(float64(b.written[regHeap]-a.written[regHeap])/kib, putKiB)
	m["storage.queue_submit_waits"] = float64(b.queue.SubmitWaits - a.queue.SubmitWaits)

	m["wal.bytes_per_commit"] = ratio(float64(b.walBytes-a.walBytes), commits)
	m["wal.device_kib_per_commit"] = ratio(float64(b.written[regWAL]-a.written[regWAL])/kib, commits)
	m["wal.flushes_per_commit"] = ratio(float64(b.walFlushes-a.walFlushes), commits)
	m["wal.checkpoints"] = float64(b.ckpts - a.ckpts)
	m["wal.ckpt_write_mib"] = float64(b.written[regCkpt]-a.written[regCkpt]) / mib

	m["extent.reuse_ratio"] = ratio(float64(b.reuses-a.reuses), float64(b.allocs-a.allocs))
	m["extent.frag_score"] = e.db.Allocator().FragStats().Score

	m["go.gc_per_kop"] = ratio(float64(b.numGC-a.numGC)*1000, ops)
	m["go.gc_cpu_share"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
	m["bench.get_samples"] = gets
	m["bench.put_samples"] = puts
}

// spanStats sums span durations (in µs) and counts by name.
type spanStats struct {
	sum   map[string]float64
	count map[string]float64
}

func summarize(spans []span) spanStats {
	st := spanStats{sum: map[string]float64{}, count: map[string]float64{}}
	for _, s := range spans {
		st.sum[s.Name] += float64(s.End-s.Start) / 1e3
		st.count[s.Name]++
	}
	return st
}

func (st spanStats) mean(name string) float64 { return ratio(st.sum[name], st.count[name]) }

// sumPrefix adds the durations of every span whose name starts with p.
func (st spanStats) sumPrefix(p string) float64 {
	var t float64
	for name, v := range st.sum {
		if len(name) >= len(p) && name[:len(p)] == p {
			t += v
		}
	}
	return t
}

// selfTime is the mean duration of spans named name minus the part of
// each covered by its child spans.
func selfTime(spans []span, name string) float64 {
	child := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var sum, n float64
	for _, s := range spans {
		if s.Name == name {
			sum += float64(s.End-s.Start-child[s.ID]) / 1e3
			n++
		}
	}
	return ratio(sum, n)
}

// spanMetrics derives the per-layer timings of the traced wire phase
// (wire, with its samples) and the engine-API pass (api).
func spanMetrics(m map[string]float64, wire []span, s *samples, api []span) {
	w, a := summarize(wire), summarize(api)
	gets, puts := float64(len(s.get)), float64(len(s.put))
	m["blobserver.get_handler_us"] = w.mean("server.GET")
	m["blobserver.put_handler_us"] = w.mean("server.PUT")
	m["blobclient.get_wire_us"] = selfTime(wire, "client.GET")
	m["core.get_us"] = a.mean("core.get")
	m["core.blob_state_us"] = a.mean("core.blob_state")
	m["core.read_blob_us"] = a.mean("core.read_blob")
	m["core.put_us"] = a.mean("core.put")
	m["blob.write_us"] = a.mean("blob.write")
	m["core.commit_wait_us"] = a.mean("core.commit_wait")
	m["blobserver.tax_get_us"] = 0
	if w.count["client.GET"] > 0 && a.count["core.get"] > 0 {
		m["blobserver.tax_get_us"] = w.mean("client.GET") - a.mean("core.get")
	}
	m["storage.read_busy_us_per_get"] = ratio(w.sumPrefix("dev.read"), gets)
	m["storage.write_busy_us_per_put"] = ratio(w.sumPrefix("dev.write"), puts)
	m["storage.sync_busy_us_per_put"] = ratio(w.sum["dev.sync"], puts)
}
