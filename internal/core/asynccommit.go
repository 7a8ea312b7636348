package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// Async commit pipeline.
//
// The paper's commit path (§III-C, §V-A) keeps I/O off the critical path:
// the WAL is group-committed and the extent flush is issued as asynchronous
// I/O. With AsyncCommit enabled the engine defers WAL flushing, the extent
// flush, and lock release to a background committer goroutine, and Commit
// returns once the transaction is enqueued (bounded queue: a slow device
// exerts backpressure). Hashing is no longer deferred: the streaming blob
// writer absorbs every chunk into the resumable SHA-256 while the data is
// still cache-hot, so Blob States arrive at the committer already final.
//
// This is real pipelining, not an accounting trick: on a multicore machine
// the committer overlaps with the workers exactly as the paper's group
// committer and I/O workers do. Durability semantics are those of group
// commit with asynchronous acknowledgement; tests that need a durability
// point call DB.DrainCommits, and callers that need a per-transaction
// durability ack (the network blob service) use Txn.CommitWait. Recovery
// semantics are unchanged — a transaction is committed iff its commit
// record (with the final, SHA-complete Blob State) is durable.
//
// The committer drains its queue into batches: every transaction's WAL
// records are flushed, then ONE device sync makes the whole batch durable
// — so concurrent writers share WAL syncs exactly as the paper's group
// commit shares them. Batch-size statistics are exposed through
// DB.CommitBatchStats.
type committer struct {
	ch   chan *Txn
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
	once sync.Once
	busy atomic.Int64 // nanoseconds spent finishing commits

	batches   atomic.Int64 // shared WAL syncs issued for commit batches
	batchTxns atomic.Int64 // transactions covered by those syncs

	// Backpressure: the bytes pinned by in-flight commits are bounded so
	// deep pipelines cannot wedge the buffer pool. Workers block in Commit
	// when over budget; blocked time is tracked so the benchmark model can
	// separate worker CPU from pipeline waiting.
	flowMu      sync.Mutex
	flowCond    *sync.Cond
	inflight    int64
	budgetBytes int64
	blocked     atomic.Int64 // nanoseconds workers spent waiting on the pipeline

	// Deterministic-batch gate (crash simulation): while gated, the
	// committer parks after receiving the first transaction of a batch and
	// before draining the rest, so a test can enqueue an exact set of
	// transactions and release them as ONE batch with a known composition.
	gateMu   sync.Mutex
	gateCond *sync.Cond
	gated    bool

	// Pipelined extent write-back: after the shared WAL sync, a batch's
	// extent flush is submitted to the device queue and the committer moves
	// on, so batch N's WAL work overlaps batch N-1's write-back. At most
	// one flight is outstanding; flightMu guards the pointer.
	flightMu sync.Mutex
	flight   *commitFlight
}

// commitFlight is one batch's in-flight extent write-back. ticket covers
// the device writes; done closes after finalization — pins released, frees
// applied, locks released, durability acks delivered.
type commitFlight struct {
	ticket *storage.Ticket
	done   chan struct{}
}

// maxCommitBatch caps how many transactions one WAL sync may cover.
const maxCommitBatch = 32

// startCommitter launches the background committer (AsyncCommit mode).
func (db *DB) startCommitter() {
	db.commit = &committer{
		ch: make(chan *Txn, 64),
		// Half the buffer pool may be pinned by in-flight commits.
		budgetBytes: int64(db.opts.PoolPages) * int64(db.dev.PageSize()) / 2,
	}
	db.commit.flowCond = sync.NewCond(&db.commit.flowMu)
	db.commit.gateCond = sync.NewCond(&db.commit.gateMu)
	db.commit.wg.Add(1)
	go func() {
		defer db.commit.wg.Done()
		for {
			t, ok := <-db.commit.ch
			if !ok {
				return
			}
			// While HoldCommits is in effect, park before forming the batch
			// so every transaction enqueued under the hold lands in it.
			db.commit.waitGate()
			// Group commit: drain whatever else is already queued so the
			// whole batch shares one WAL sync.
			batch := append(make([]*Txn, 0, maxCommitBatch), t)
		drain:
			for len(batch) < maxCommitBatch {
				select {
				case t2, ok2 := <-db.commit.ch:
					if !ok2 {
						break drain
					}
					batch = append(batch, t2)
				default:
					break drain
				}
			}
			start := time.Now() //blobvet:allow real committer-busy accounting for the benchmark overlap model
			db.finishBatch(batch)
			db.commit.busy.Add(int64(time.Since(start))) //blobvet:allow real committer-busy accounting for the benchmark overlap model
		}
	}()
}

// enqueue hands a transaction to the committer, blocking while the
// pipeline holds more than its byte budget of pinned frames. If the
// transaction's context is cancelled before the handoff happens, enqueue
// gives up and returns the context error — a cancelled HTTP request stops
// waiting for pipeline capacity instead of leaking a blocked goroutine.
func (c *committer) enqueue(t *Txn) error {
	tb := t.pendingBytes()
	t.inflightBytes = tb
	start := time.Now() //blobvet:allow real backpressure-blocked accounting for the benchmark overlap model
	defer func() {
		if d := time.Since(start); d > time.Microsecond { //blobvet:allow real backpressure-blocked accounting for the benchmark overlap model
			c.blocked.Add(int64(d))
		}
	}()
	// Wake the cond-var wait below when the context dies; sync.Cond has no
	// native context support.
	stop := context.AfterFunc(t.ctx, func() {
		c.flowMu.Lock()
		c.flowCond.Broadcast()
		c.flowMu.Unlock()
	})
	defer stop()
	c.flowMu.Lock()
	for c.inflight > 0 && c.inflight+tb > c.budgetBytes {
		if err := t.ctx.Err(); err != nil {
			c.flowMu.Unlock()
			return err
		}
		c.flowCond.Wait()
	}
	c.inflight += tb
	c.flowMu.Unlock()
	// Re-check before the handoff: a select with both arms ready picks
	// randomly, and an already-cancelled transaction must never commit.
	if err := t.ctx.Err(); err != nil {
		c.release(t)
		return err
	}
	select {
	case c.ch <- t:
		return nil
	case <-t.ctx.Done():
		c.release(t) // undo the budget reservation
		return t.ctx.Err()
	}
}

// release returns a finished transaction's bytes to the budget. The byte
// count was snapshotted at enqueue time — the pending frames are already
// released by the time this runs.
func (c *committer) release(t *Txn) {
	c.flowMu.Lock()
	c.inflight -= t.inflightBytes
	c.flowCond.Broadcast()
	c.flowMu.Unlock()
}

// pendingBytes sums the frame bytes a transaction keeps pinned until its
// commit finishes.
func (t *Txn) pendingBytes() int64 {
	var n int64
	for _, p := range t.pendings {
		for _, f := range p.Frames {
			n += int64(f.NPages) * int64(t.db.dev.PageSize())
		}
	}
	return n
}

// waitGate parks the committer while a HoldCommits window is open.
func (c *committer) waitGate() {
	c.gateMu.Lock()
	for c.gated {
		c.gateCond.Wait()
	}
	c.gateMu.Unlock()
}

// HoldCommits pauses the async committer's batch formation: transactions
// enqueued while the hold is in effect accumulate in the queue instead of
// being committed one by one. ReleaseCommits lets them go as a single
// group-commit batch of known composition — the crash-simulation harness
// uses this to make batch boundaries deterministic. No-op without
// AsyncCommit. Every HoldCommits must be paired with ReleaseCommits
// (DrainCommits and CloseCommitter deadlock under an open hold).
func (db *DB) HoldCommits() {
	if db.commit == nil {
		return
	}
	db.commit.gateMu.Lock()
	db.commit.gated = true
	db.commit.gateMu.Unlock()
}

// ReleaseCommits ends a HoldCommits window.
func (db *DB) ReleaseCommits() {
	if db.commit == nil {
		return
	}
	db.commit.gateMu.Lock()
	db.commit.gated = false
	db.commit.gateCond.Broadcast()
	db.commit.gateMu.Unlock()
}

// CommitBlocked reports the cumulative time workers spent blocked on the
// commit pipeline (backpressure and drains). The benchmark model subtracts
// it from wall time to recover pure worker CPU.
func (db *DB) CommitBlocked() time.Duration {
	if db.commit == nil {
		return 0
	}
	return time.Duration(db.commit.blocked.Load())
}

// CommitterBusy reports the cumulative time the background committer has
// spent finishing commits. On a multicore host this work overlaps with the
// workers; the benchmark harness models that overlap explicitly so results
// are comparable on single-core machines.
func (db *DB) CommitterBusy() time.Duration {
	if db.commit == nil {
		return 0
	}
	return time.Duration(db.commit.busy.Load())
}

// CommitterErr reports the first background commit failure without
// draining the pipeline (nil without AsyncCommit, or while healthy). A
// non-nil result means the engine's durability path is poisoned — the
// shard router uses this to fence a crashed engine and fail its
// keyspace slice fast instead of queueing doomed work behind it.
func (db *DB) CommitterErr() error {
	if db.commit == nil {
		return nil
	}
	db.commit.mu.Lock()
	defer db.commit.mu.Unlock()
	return db.commit.err
}

// DrainCommits blocks until every enqueued commit has fully finished and
// returns the first background commit error, if any.
func (db *DB) DrainCommits() error {
	if db.commit == nil {
		return nil
	}
	start := time.Now() //blobvet:allow real drain-blocked accounting for the benchmark overlap model
	done := make(chan struct{})
	db.commit.ch <- &Txn{drain: done}
	<-done
	db.commit.blocked.Add(int64(time.Since(start))) //blobvet:allow real drain-blocked accounting for the benchmark overlap model
	db.commit.mu.Lock()
	defer db.commit.mu.Unlock()
	return db.commit.err
}

// CloseCommitter stops the pipeline (used by tests; safe to skip).
func (db *DB) CloseCommitter() error {
	if db.commit == nil {
		return nil
	}
	err := db.DrainCommits()
	db.commit.once.Do(func() { close(db.commit.ch) })
	db.commit.wg.Wait()
	return err
}

// finishBatch runs the deferred half of a batch of transactions on the
// committer: every transaction's WAL records are flushed, then one shared
// sync makes the whole batch durable, then the batch's extent write-back
// is *submitted* to the device queue and the committer returns to form the
// next batch — so batch N's WAL sync overlaps batch N-1's extent flush.
// §III-C ordering is preserved: a transaction's extents flush strictly
// after its own commit record is durable; the pipelining only overlaps the
// flush with the *next* batch's WAL work. Drain sentinels are acknowledged
// once every prior flight has fully finalized.
func (db *DB) finishBatch(batch []*Txn) {
	// Background work is charged to no meter: its cost reaches the
	// measurement only as real wall time through backpressure when the
	// committer is the bottleneck — exactly how the paper's group
	// committer behaves.
	var drains []chan struct{}
	live := batch[:0]
	for _, t := range batch {
		if t.drain != nil {
			drains = append(drains, t.drain)
			continue
		}
		live = append(live, t)
	}

	if len(live) > 0 {
		db.ckptMu.Lock()
		flushed := live[:0]
		for _, t := range live {
			if err := t.log().CommitNoSync(nil, t.id); err != nil {
				db.failCommit(t, err)
				continue
			}
			flushed = append(flushed, t)
		}
		if len(flushed) > 0 {
			// The shared group-commit sync: one durability point for the
			// whole batch. The previous batch's extent write-back is still
			// in flight on the queue while this sync runs — that is the
			// pipeline overlap.
			if err := db.wal.Sync(nil); err != nil {
				for _, t := range flushed {
					db.failCommit(t, err)
				}
				flushed = flushed[:0]
			} else {
				db.commit.batches.Add(1)
				db.commit.batchTxns.Add(int64(len(flushed)))
			}
		}
		if len(flushed) > 0 {
			// Pipeline handoff: join the previous flight's device writes
			// (bounding the pipeline at one outstanding batch), then submit
			// this batch's flush and move on.
			db.joinCommitFlight()
			db.submitCommitFlush(flushed)
		}
		db.ckptMu.Unlock()
	}
	if len(drains) > 0 {
		db.drainCommitFlight()
		for _, d := range drains {
			close(d)
		}
	}
}

// submitCommitFlush hands a durable batch's extent write-back to the
// submission queue and finalizes the transactions when the writes land.
// Called with ckptMu held; on an inline queue the flush therefore runs
// under ckptMu exactly like the pre-pipeline committer, which is what
// keeps crashsim's op ordering unchanged.
func (db *DB) submitCommitFlush(txns []*Txn) {
	f := &commitFlight{done: make(chan struct{})}
	f.ticket = db.queue.SubmitFunc(nil, func(m *simtime.Meter) error {
		for _, t := range txns {
			for _, p := range t.pendings {
				if t.flushErr = p.Flush(m); t.flushErr != nil {
					break
				}
			}
		}
		return nil
	})
	db.commit.flightMu.Lock()
	db.commit.flight = f
	db.commit.flightMu.Unlock()
	go db.finalizeCommitFlight(f, txns)
}

// finalizeCommitFlight completes a batch once its write-back ticket
// signals: failed transactions are failCommit'ed; successful ones release
// their pinned frames, apply their frees, drop their locks, and deliver
// their durability acks (waitC last, so an acked caller observes every
// other effect). Runs off the committer goroutine — the committer is
// already forming the next batch.
func (db *DB) finalizeCommitFlight(f *commitFlight, txns []*Txn) {
	db.queue.Wait(f.ticket)
	for _, t := range txns {
		if t.flushErr != nil {
			db.failCommit(t, t.flushErr)
			continue
		}
		for _, p := range t.pendings {
			p.Release()
		}
		db.registerDedup(t.regs)
		db.deferFrees(t.id, t.frees)
		t.releaseLocks()
		db.endTxn(t.id)
		t.writer.Close()
		db.commit.release(t)
		if t.waitC != nil {
			t.waitC <- nil
		}
	}
	close(f.done)
}

// joinCommitFlight blocks until the outstanding flight's device writes
// have completed (finalization may still be running). It bounds the
// pipeline at one batch and doubles as the checkpoint writer's §III-C
// barrier: after a join, no committed-but-unflushed extents precede the
// current batch.
func (db *DB) joinCommitFlight() {
	if db.commit == nil {
		return
	}
	db.commit.flightMu.Lock()
	f := db.commit.flight
	db.commit.flightMu.Unlock()
	if f != nil {
		db.queue.Wait(f.ticket)
	}
}

// drainCommitFlight blocks until the outstanding flight has fully
// finalized — acks delivered, frees applied — the drain sentinel's strong
// barrier.
func (db *DB) drainCommitFlight() {
	if db.commit == nil {
		return
	}
	db.commit.flightMu.Lock()
	f := db.commit.flight
	db.commit.flightMu.Unlock()
	if f != nil {
		<-f.done
	}
}

// failCommit records a background commit failure and releases everything
// the transaction holds — pinned frames, locks, WAL buffer, byte budget —
// so the system cannot wedge; a CommitWait caller receives the error.
func (db *DB) failCommit(t *Txn, err error) {
	err = fmt.Errorf("core: async commit txn %d: %w", t.id, err)
	db.commit.mu.Lock()
	if db.commit.err == nil {
		db.commit.err = err
	}
	db.commit.mu.Unlock()
	for _, p := range t.pendings {
		p.ReleaseUnflushed()
	}
	t.releaseLocks()
	db.endTxn(t.id)
	t.writer.Close()
	db.commit.release(t)
	if t.waitC != nil {
		t.waitC <- err
	}
}

// CommitBatchStats reports group-commit batching on the async pipeline:
// the number of shared WAL syncs issued for commit batches and the number
// of transactions those syncs covered. txns/flushes > 1 means concurrent
// commits are sharing durability syncs.
func (db *DB) CommitBatchStats() (flushes, txns int64) {
	if db.commit == nil {
		return 0, 0
	}
	return db.commit.batches.Load(), db.commit.batchTxns.Load()
}
