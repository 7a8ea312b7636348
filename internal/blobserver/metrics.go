package blobserver

import (
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blobdb/internal/core"
	"blobdb/internal/shard"
)

// metrics publishes per-route counters, latency stats, admission-control
// activity, and the engine's group-commit batching figures in expvar
// format. The vars live in a server-local expvar.Map (not the process
// registry) so multiple servers — and tests — never collide on names;
// serveVars renders them at /debug/vars.
//
// Sharded topology: the engine-level maps (commit_pipeline, pool, wal)
// aggregate across shards — on a one-shard cluster they are bit-for-bit
// the single-engine figures — while shard.<i>.commit and shard.<i>.pool
// expose each pipeline separately and shard_router carries the routing
// counters (per-shard routed/shed ops, scatter-gather fan-out latency,
// rebalance bytes moved).
type metrics struct {
	vars *expvar.Map

	mu     sync.Mutex
	routes map[string]*routeStats

	admitted, rejected atomic.Int64
	bytesIn, bytesOut  atomic.Int64

	// shardRejected counts 503s issued for a single shard's keyspace slice
	// (busy or fenced shard) as opposed to whole-server admission sheds.
	shardRejected atomic.Int64

	// Scatter-gather (merged key listing) fan-out latency.
	scatterCount atomic.Int64
	scatterNs    atomic.Int64
	scatterMax   atomic.Int64

	// putPeakBuffered is the high-water mark of bytes any single PUT kept
	// pinned in the buffer pool while streaming its body — the streaming
	// writer bounds it at roughly one extent regardless of blob size, and
	// the 64 MiB streaming test asserts exactly that through this gauge.
	putPeakBuffered atomic.Int64

	// Zero-copy GET accounting: getZeroCopy counts bodies written straight
	// from the aliased view (one write per extent span), getFallback counts
	// multipart-range responses that went through the stdlib's buffered
	// copier, getAborted counts zero-copy bodies cut short by the client
	// hanging up. zero_copy / (zero_copy + fallback) is the copies-per-read
	// figure PR 8's bench tracks.
	getZeroCopy, getFallback, getAborted atomic.Int64
}

// observePutPeak raises the streaming-PUT peak-buffered gauge.
func (m *metrics) observePutPeak(n int64) {
	for {
		old := m.putPeakBuffered.Load()
		if n <= old || m.putPeakBuffered.CompareAndSwap(old, n) {
			return
		}
	}
}

// observeScatter records one scatter-gather listing's fan-out latency.
func (m *metrics) observeScatter(d time.Duration) {
	m.scatterCount.Add(1)
	ns := int64(d)
	m.scatterNs.Add(ns)
	for {
		old := m.scatterMax.Load()
		if ns <= old || m.scatterMax.CompareAndSwap(old, ns) {
			return
		}
	}
}

// PutPeakBufferedBytes reports the largest number of bytes any single PUT
// request has kept pinned while streaming (tests assert the bound).
func (s *Server) PutPeakBufferedBytes() int64 { return s.metrics.putPeakBuffered.Load() }

// routeStats aggregates one route's request count, error count, and
// latency (count+sum+max suffice for averages and tail spotting without
// a histogram dependency).
type routeStats struct {
	requests   atomic.Int64
	errors     atomic.Int64 // 5xx responses
	latencySum atomic.Int64 // nanoseconds
	latencyMax atomic.Int64 // nanoseconds
}

func (r *routeStats) observe(status int, d time.Duration) {
	r.requests.Add(1)
	if status >= 500 {
		r.errors.Add(1)
	}
	ns := int64(d)
	r.latencySum.Add(ns)
	for {
		old := r.latencyMax.Load()
		if ns <= old || r.latencyMax.CompareAndSwap(old, ns) {
			break
		}
	}
}

// commitVars renders one engine's group-commit batching figures: flushes
// = shared WAL syncs, txns = commits they covered; txns_per_flush > 1 is
// the paper's group commit working.
func commitVars(db *core.DB) map[string]any {
	flushes, txns := db.CommitBatchStats()
	avg := 0.0
	if flushes > 0 {
		avg = float64(txns) / float64(flushes)
	}
	return map[string]any{
		"batch_flushes":  flushes,
		"batched_txns":   txns,
		"txns_per_flush": avg,
		"blocked_ns":     int64(db.CommitBlocked()),
		"committer_busy": int64(db.CommitterBusy()),
	}
}

// poolVars renders one engine's batched read-path counters (§III-D): one
// vectored submission per cold BLOB read. read_vec_segments /
// fix_batch_pages size the batches, singleflight_coalesces counts readers
// that piggybacked on another worker's in-flight load, prefix_upgrades
// counts prefix entries dropped for a fix that needed the whole extent,
// lock_wait_ns is cumulative wait for the pool's structural mutex.
func poolVars(db *core.DB) map[string]any {
	s := db.Pool().Stats().Snapshot()
	a := db.AliasManager().Stats()
	q := db.Queue().Stats()
	return map[string]any{
		"hits":                   s.Hits,
		"misses":                 s.Misses,
		"evictions":              s.Evictions,
		"writebacks":             s.Writebacks,
		"fix_batches":            s.FixBatches,
		"fix_batch_pages":        s.FixBatchPages,
		"read_vec_segments":      s.ReadVecSegments,
		"singleflight_coalesces": s.Coalesces,
		"prefix_upgrades":        s.Upgrades,
		"lock_wait_ns":           s.LockWaitNs,
		// Aliasing areas (§IV-B): worker-local vs shared-bitmap vs direct
		// single-extent views, plus the costs (CAS retries, shootdowns).
		"alias_local_uses":  a.LocalUses,
		"alias_shared_uses": a.SharedUses,
		"alias_direct_uses": a.DirectUses,
		"alias_cas_retries": a.CASRetries,
		"alias_shootdowns":  a.Shootdowns,
		// Device queue-depth gate; in the aggregate map the depth sums
		// across shards (total device slots in the topology).
		"queue_depth":        int64(q.Depth),
		"queue_inflight":     q.Inflight,
		"queue_submitted":    q.Submitted,
		"queue_completed":    q.Completed,
		"queue_submit_waits": q.SubmitWaits,
	}
}

func newMetrics(c *shard.Cluster, adm *admission) *metrics {
	m := &metrics{vars: new(expvar.Map).Init(), routes: map[string]*routeStats{}}
	pub := func(name string, f func() any) { m.vars.Set(name, expvar.Func(f)) }

	pub("admission", func() any {
		return map[string]any{
			"admitted":       m.admitted.Load(),
			"rejected":       m.rejected.Load(),
			"shard_rejected": m.shardRejected.Load(),
			"in_flight":      adm.inFlight(),
			"queue_wait_ns":  adm.waitNs.Load(),
			"max_in_flight":  cap(adm.sem),
			"draining":       adm.isDraining(),
			"max_queue_wait": adm.maxWait.String(),
		}
	})
	pub("bytes", func() any {
		return map[string]any{
			"in":                      m.bytesIn.Load(),
			"out":                     m.bytesOut.Load(),
			"put_peak_buffered_bytes": m.putPeakBuffered.Load(),
		}
	})
	pub("read_path", func() any {
		return map[string]any{
			"zero_copy_responses": m.getZeroCopy.Load(),
			"copy_fallbacks":      m.getFallback.Load(),
			"client_aborts":       m.getAborted.Load(),
		}
	})
	pub("dedup", func() any {
		var agg core.DedupStats
		for _, sh := range c.Healthy() {
			s := sh.DB().DedupStats()
			agg.IndexEntries += s.IndexEntries
			agg.SharedExtents += s.SharedExtents
			agg.Hits += s.Hits
			agg.SharedBytes += s.SharedBytes
			agg.Increments += s.Increments
			agg.Decrements += s.Decrements
			agg.OrphanFrees += s.OrphanFrees
		}
		return map[string]any{
			"index_entries":  agg.IndexEntries,
			"shared_extents": agg.SharedExtents,
			"hits":           agg.Hits,
			"shared_bytes":   agg.SharedBytes,
			"increments":     agg.Increments,
			"decrements":     agg.Decrements,
			"orphan_frees":   agg.OrphanFrees,
		}
	})
	// Aggregate engine figures across shards. On the one-shard cluster
	// these are exactly the single engine's numbers.
	pub("commit_pipeline", func() any {
		var flushes, txns, blocked, busy int64
		for _, sh := range c.Healthy() {
			f, t := sh.DB().CommitBatchStats()
			flushes += f
			txns += t
			blocked += int64(sh.DB().CommitBlocked())
			busy += int64(sh.DB().CommitterBusy())
		}
		avg := 0.0
		if flushes > 0 {
			avg = float64(txns) / float64(flushes)
		}
		return map[string]any{
			"batch_flushes":  flushes,
			"batched_txns":   txns,
			"txns_per_flush": avg,
			"blocked_ns":     blocked,
			"committer_busy": busy,
		}
	})
	pub("pool", func() any {
		agg := map[string]any{}
		for _, sh := range c.Healthy() {
			for k, v := range poolVars(sh.DB()) {
				cur, _ := agg[k].(int64)
				switch n := v.(type) {
				case int64:
					agg[k] = cur + n
				case uint64:
					agg[k] = cur + int64(n)
				}
			}
		}
		return agg
	})
	pub("wal", func() any {
		var flushes, bytesLogged, ckpts int64
		for _, sh := range c.Healthy() {
			flushes += int64(sh.DB().WAL().Flushes())
			bytesLogged += int64(sh.DB().WAL().BytesLogged())
			ckpts += int64(sh.DB().WAL().Checkpoints())
		}
		return map[string]any{
			"flushes":      flushes,
			"bytes_logged": bytesLogged,
			"checkpoints":  ckpts,
		}
	})
	// Per-shard engine pipelines, namespaced by shard id.
	for _, sh := range c.Shards() {
		sh := sh
		pub("shard."+strconv.Itoa(sh.ID())+".commit", func() any {
			if sh.Down() {
				return map[string]any{"down": true}
			}
			return commitVars(sh.DB())
		})
		pub("shard."+strconv.Itoa(sh.ID())+".pool", func() any {
			if sh.Down() {
				return map[string]any{"down": true}
			}
			return poolVars(sh.DB())
		})
	}
	// Router-level counters: per-shard routed/shed ops, scatter-gather
	// fan-out latency, live-reshard progress.
	pub("shard_router", func() any {
		perShard := map[string]any{}
		for _, sh := range c.Shards() {
			perShard[strconv.Itoa(sh.ID())] = map[string]any{
				"routed":    sh.Routed(),
				"shed":      sh.Shed(),
				"in_flight": sh.InFlight(),
				"down":      sh.Down(),
			}
		}
		n := m.scatterCount.Load()
		avg := int64(0)
		if n > 0 {
			avg = m.scatterNs.Load() / n
		}
		return map[string]any{
			"num_shards":  c.NumShards(),
			"ring_size":   c.Ring().NumMembers(),
			"rebalancing": c.Rebalancing(),
			"rebalance": map[string]any{
				"bytes_moved": c.RebalancedBytes(),
				"blobs_moved": c.RebalancedBlobs(),
			},
			"scatter_gather": map[string]any{
				"listings":       n,
				"latency_ns_sum": m.scatterNs.Load(),
				"latency_ns_avg": avg,
				"latency_ns_max": m.scatterMax.Load(),
			},
			"shards": perShard,
		}
	})
	pub("routes", func() any {
		m.mu.Lock()
		defer m.mu.Unlock()
		out := map[string]any{}
		for name, r := range m.routes {
			n := r.requests.Load()
			avg := int64(0)
			if n > 0 {
				avg = r.latencySum.Load() / n
			}
			out[name] = map[string]any{
				"requests":       n,
				"errors":         r.errors.Load(),
				"latency_ns_sum": r.latencySum.Load(),
				"latency_ns_avg": avg,
				"latency_ns_max": r.latencyMax.Load(),
			}
		}
		return out
	})
	return m
}

// routeMetrics returns (creating on first use) the stats bucket for name.
func (m *metrics) routeMetrics(name string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.routes[name]
	if !ok {
		r = &routeStats{}
		m.routes[name] = r
	}
	return r
}

// serveVars renders the server's vars as the familiar /debug/vars JSON
// document.
func (m *metrics) serveVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n\"blobserver\": %s\n}\n", m.vars.String())
}
