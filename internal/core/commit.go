package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blobdb/internal/storage"
)

// Commit pipeline.
//
// Every write transaction commits through one group committer (§III-C,
// §V-A): Txn.Commit hands the transaction to the committer and returns
// once the transaction's batch is durable and its extents are flushed.
// The committer makes a batch durable with one shared WAL sync, then
// starts the batch's commit flight — one goroutine that flushes the
// extents and finalizes the batch — and forms the next batch while that
// flush runs, so I/O stays off the workers' critical path. Hashing is not
// deferred: the streaming blob writer absorbs every chunk into the
// resumable SHA-256 while the data is still cache-hot, so Blob States
// arrive at the committer already final. The ordering rules
// are specified in DESIGN.md §5, "Commit ordering".
//
// A transaction is committed iff its commit record (with the final,
// SHA-complete Blob State) is durable. DB.DrainCommits waits for every
// earlier commit; Txn.CommitAsync returns the ack channel instead of
// waiting on it; DB.CommitBatchStats reports batch sizes.
//
// The committer goroutine runs only while work is queued: enqueue starts
// it on an idle pipeline, and it exits once the queue is empty and the
// last flight's device writes have landed. It waits for the landing, not
// for finalization: the landing is signalled before the acks go out, so
// waking the committer does not queue it ahead of the acknowledged
// workers. A flight's goroutine ends when its batch is finalized, so an
// idle DB holds no goroutine and a dropped one can be garbage-collected.
type committer struct {
	ch   chan *Txn
	mu   sync.Mutex
	err  error
	busy atomic.Int64 // nanoseconds spent finishing commits

	batches   atomic.Int64 // shared WAL syncs issued for commit batches
	batchTxns atomic.Int64 // transactions covered by those syncs

	// runMu guards running; runCond signals the goroutine's exit.
	runMu   sync.Mutex
	runCond *sync.Cond
	running bool

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
	// extent flush runs on its flight goroutine and the committer moves
	// on, so batch N's WAL work overlaps batch N-1's write-back. At most
	// one flight is outstanding; flightMu guards the pointer.
	flightMu sync.Mutex
	flight   *commitFlight
	// finalizing counts flights not yet finalized: an earlier flight's
	// acks can still be going out after a later flight has started. The
	// committer goroutine alone calls Add and Wait.
	finalizing sync.WaitGroup

	// Extents-landed watermark (DESIGN.md §5, "Recovery validation"):
	// landedW is the highest commit LSN whose batch's writes all landed;
	// syncedW is the landedW a completed committer sync was started
	// after, and loggedW the highest value logged in a RecLanded record
	// (both committer goroutine only). After any commit failure the
	// watermark never advances again.
	landedW  atomic.Uint64
	syncedW  uint64
	loggedW  uint64
	wStopped atomic.Bool
}

// commitFlight is one batch's in-flight extent write-back, run by one
// goroutine. landed closes once the device writes completed (the pipeline
// barrier and the idle committer's exit signal); committer.finalizing
// counts the flight until its finalization — pins released, frees
// applied, locks released, durability acks delivered — is done.
type commitFlight struct {
	landed chan struct{}
}

// maxCommitBatch caps how many transactions one WAL sync may cover.
const maxCommitBatch = 32

// newCommitter sets up an idle pipeline; no goroutine runs until the
// first enqueue.
func (db *DB) newCommitter() *committer {
	c := &committer{
		ch: make(chan *Txn, 64),
		// Half the buffer pool may be pinned by in-flight commits.
		budgetBytes: int64(db.opts.PoolPages) * int64(db.dev.PageSize()) / 2,
	}
	c.runCond = sync.NewCond(&c.runMu)
	c.flowCond = sync.NewCond(&c.flowMu)
	c.gateCond = sync.NewCond(&c.gateMu)
	return c
}

// submit queues t (a transaction or a drain sentinel) and starts the
// committer goroutine if the pipeline is idle. The start check follows the
// send: the goroutine exits only after seeing an empty queue under runMu,
// so every queued item is either seen by a running goroutine or followed
// by this check.
func (db *DB) submit(t *Txn) error {
	c := db.commit
	select {
	case c.ch <- t:
	case <-t.ctx.Done():
		return t.ctx.Err()
	}
	c.runMu.Lock()
	if !c.running {
		c.running = true
		go db.runCommitter()
	}
	c.runMu.Unlock()
	return nil
}

// runCommitter forms and finishes batches until the pipeline is idle.
func (db *DB) runCommitter() {
	c := db.commit
	for {
		t, ok := c.next()
		if !ok {
			return
		}
		// While HoldCommits is in effect, park before forming the batch
		// so every transaction enqueued under the hold lands in it.
		c.waitGate()
		// Group commit: drain whatever else is already queued so the
		// whole batch shares one WAL sync.
		batch := append(make([]*Txn, 0, maxCommitBatch), t)
	drain:
		for len(batch) < maxCommitBatch {
			select {
			case t2 := <-c.ch:
				batch = append(batch, t2)
			default:
				break drain
			}
		}
		start := time.Now() //blobvet:allow real committer-busy accounting for the benchmark overlap model
		db.finishBatch(batch)
		c.busy.Add(int64(time.Since(start))) //blobvet:allow real committer-busy accounting for the benchmark overlap model
	}
}

// next returns the next queued item. On an empty queue it waits for new
// work or for the outstanding flight's writes to land; once the queue is
// empty and no flight is writing it marks the pipeline idle and reports
// false.
func (c *committer) next() (*Txn, bool) {
	for {
		select {
		case t := <-c.ch:
			return t, true
		default:
		}
		if f := c.currentFlight(); f != nil {
			select {
			case t := <-c.ch:
				return t, true
			case <-f.landed:
			}
		}
		c.runMu.Lock()
		if len(c.ch) == 0 {
			c.running = false
			c.runCond.Broadcast()
			c.runMu.Unlock()
			return nil, false
		}
		c.runMu.Unlock()
	}
}

// currentFlight returns the most recently submitted flight, if any.
func (c *committer) currentFlight() *commitFlight {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	return c.flight
}

// enqueue hands a transaction to the committer, blocking while the
// pipeline holds more than its byte budget of pinned frames — except
// inside a HoldCommits window, where the parked committer could never
// return budget and the held batch takes what it pins. If the
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
	for c.inflight > 0 && c.inflight+tb > c.budgetBytes && !c.holding() {
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
	if err := t.db.submit(t); err != nil {
		c.release(t) // undo the budget reservation
		return err
	}
	return nil
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

// holding reports whether a HoldCommits window is open.
func (c *committer) holding() bool {
	c.gateMu.Lock()
	defer c.gateMu.Unlock()
	return c.gated
}

// waitGate parks the committer while a HoldCommits window is open.
func (c *committer) waitGate() {
	c.gateMu.Lock()
	for c.gated {
		c.gateCond.Wait()
	}
	c.gateMu.Unlock()
}

// HoldCommits pauses the committer's batch formation: transactions
// enqueued while the hold is in effect accumulate in the queue instead of
// being committed one by one. ReleaseCommits lets them go as a single
// group-commit batch of known composition — the crash-simulation harness
// uses this to make batch boundaries deterministic. Every HoldCommits
// must be paired with ReleaseCommits. Inside the window use CommitAsync:
// it does not wait for the commit byte budget there, so held batches may
// pin more than half the pool. Every call that waits for a write
// transaction's commit deadlocks under an open hold: Txn.Commit and
// Txn.CommitWait of a transaction that wrote, DB.Install, DB.Delete,
// DB.ApplyReplicated, DB.DrainCommits and DB.CloseCommitter. So does a
// CommitAsync once the committer's queue (64 transactions, plus the one
// the parked committer holds) is full. DB.CreateRelation syncs its own
// commit record and does not wait for the committer.
func (db *DB) HoldCommits() {
	c := db.commit
	c.gateMu.Lock()
	c.gated = true
	c.gateMu.Unlock()
	// Wake enqueues already waiting for budget: the hold lets them in.
	c.flowMu.Lock()
	c.flowCond.Broadcast()
	c.flowMu.Unlock()
}

// ReleaseCommits ends a HoldCommits window.
func (db *DB) ReleaseCommits() {
	db.commit.gateMu.Lock()
	db.commit.gated = false
	db.commit.gateCond.Broadcast()
	db.commit.gateMu.Unlock()
}

// CommitBlocked reports the cumulative time workers spent blocked on the
// commit pipeline (backpressure and drains). The benchmark model subtracts
// it from wall time to recover pure worker CPU.
func (db *DB) CommitBlocked() time.Duration {
	return time.Duration(db.commit.blocked.Load())
}

// CommitterBusy reports the cumulative time the background committer has
// spent finishing commits. On a multicore host this work overlaps with the
// workers; the benchmark harness models that overlap explicitly so results
// are comparable on single-core machines.
func (db *DB) CommitterBusy() time.Duration {
	return time.Duration(db.commit.busy.Load())
}

// CommitterErr reports the first commit failure without draining the
// pipeline (nil while healthy). A non-nil result means the engine's
// durability path is poisoned — the shard router uses this to fence a
// crashed engine and fail its keyspace slice fast instead of queueing
// doomed work behind it.
func (db *DB) CommitterErr() error {
	db.commit.mu.Lock()
	defer db.commit.mu.Unlock()
	return db.commit.err
}

// DrainCommits blocks until every enqueued commit has fully finished and
// returns the first commit error, if any.
func (db *DB) DrainCommits() error {
	start := time.Now() //blobvet:allow real drain-blocked accounting for the benchmark overlap model
	done := make(chan struct{})
	db.submit(&Txn{ctx: context.Background(), drain: done}) // cannot be cancelled
	<-done
	db.commit.blocked.Add(int64(time.Since(start))) //blobvet:allow real drain-blocked accounting for the benchmark overlap model
	db.commit.mu.Lock()
	defer db.commit.mu.Unlock()
	return db.commit.err
}

// CloseCommitter drains the pipeline and waits for the committer
// goroutine to exit, returning the first commit error. Safe to skip: an
// idle pipeline holds no goroutine. A later Commit restarts it.
func (db *DB) CloseCommitter() error {
	err := db.DrainCommits()
	c := db.commit
	c.runMu.Lock()
	for c.running {
		c.runCond.Wait()
	}
	c.runMu.Unlock()
	return err
}

// finishBatch runs the deferred half of a batch of transactions on the
// committer: every transaction's WAL records are flushed, then one shared
// sync makes the whole batch durable, then the batch's extent write-back
// is *started* on its commit flight and the committer returns to form the
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
		c := db.commit
		flushed := live[:0]
		for i, t := range live {
			var w uint64
			if i == 0 {
				// The watermark rides in the batch's first log flush.
				var err error
				if w, err = db.logWatermark(t); err != nil {
					db.failCommit(t, err)
					continue
				}
			}
			lsn, err := t.log().CommitNoSync(nil, t.id)
			if err != nil {
				db.failCommit(t, err)
				continue
			}
			t.commitLSN = lsn
			c.loggedW = max(c.loggedW, w)
			flushed = append(flushed, t)
		}
		if len(flushed) > 0 {
			// The shared group-commit sync: one durability point for the
			// whole batch. The previous batch's extent write-back is still
			// in flight while this sync runs — that is the pipeline
			// overlap. Every flight that landed before the sync starts is
			// durable once it returns.
			covered := c.landedW.Load()
			if err := db.wal.Sync(nil); err != nil {
				for _, t := range flushed {
					db.failCommit(t, err)
				}
				flushed = flushed[:0]
			} else {
				c.syncedW = max(c.syncedW, covered)
				c.batches.Add(1)
				c.batchTxns.Add(int64(len(flushed)))
			}
		}
		if len(flushed) > 0 {
			// Pipeline handoff: join the previous flight's device writes
			// (bounding the pipeline at one outstanding batch), then start
			// this batch's flight and move on.
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

// submitCommitFlush starts a durable batch's commit flight: one goroutine
// that flushes the batch's extents, closes landed, then finalizes the
// transactions. Called with ckptMu held. Under WithInlineQueue it returns
// only once the writes landed, so the flush runs under ckptMu exactly like
// the pre-pipeline committer — which keeps crashsim's op ordering
// unchanged.
func (db *DB) submitCommitFlush(txns []*Txn) {
	f := &commitFlight{landed: make(chan struct{})}
	db.commit.flightMu.Lock()
	db.commit.flight = f
	db.commit.flightMu.Unlock()
	db.commit.finalizing.Add(1)
	go db.runCommitFlight(f, txns)
	if db.opts.InlineQueue {
		<-f.landed
	}
}

// runCommitFlight is a flight's goroutine. It writes every transaction's
// extents back, closes landed, then completes the batch: failed
// transactions are failCommit'ed; successful ones release their pinned
// frames, apply their frees, drop their locks, and deliver their
// durability acks (waitC last, so an acked caller observes every other
// effect). The committer is already forming the next batch meanwhile.
func (db *DB) runCommitFlight(f *commitFlight, txns []*Txn) {
	// Background work is charged to no meter (see finishBatch).
	for _, t := range txns {
		for _, p := range t.pendings {
			if t.flushErr = p.Flush(nil); t.flushErr != nil {
				break
			}
		}
	}
	db.land(txns)
	close(f.landed)
	for _, t := range txns {
		if t.flushErr != nil {
			db.failCommit(t, t.flushErr)
			continue
		}
		for _, p := range t.pendings {
			p.Release()
		}
		db.registerDedup(t.regs)
		db.deferFrees(t.id, nil, t.frees)
		t.releaseLocks()
		db.endTxn(t.id)
		t.writer.Close()
		db.commit.release(t)
		t.waitC <- nil
	}
	db.commit.finalizing.Done()
}

// joinCommitFlight blocks until the outstanding flight's device writes
// have completed (finalization may still be running). It bounds the
// pipeline at one batch.
func (db *DB) joinCommitFlight() {
	if f := db.commit.currentFlight(); f != nil {
		<-f.landed
	}
}

// drainCommitFlight blocks until every flight has fully finalized — acks
// delivered, frees applied — the drain sentinel's strong barrier. Waiting
// for the newest flight alone is not enough: joinCommitFlight let it start
// once its predecessor's writes landed, while the predecessor's acks may
// still be going out.
func (db *DB) drainCommitFlight() {
	db.commit.finalizing.Wait()
}

// failCommit records a background commit failure and releases everything
// the transaction holds — pinned frames, locks, WAL buffer, byte budget —
// so the system cannot wedge; the waiting Commit receives the error.
// Allocator bookkeeping is left untouched: after a commit error the
// database is in doubt, and recovery, not the allocator, decides the
// extents' fate.
func (db *DB) failCommit(t *Txn, err error) {
	err = fmt.Errorf("core: commit txn %d: %w", t.id, err)
	db.commit.stopWatermark()
	db.commit.mu.Lock()
	if db.commit.err == nil {
		db.commit.err = err
	}
	db.commit.mu.Unlock()
	// The unflushed frames leave the pool without write-back, so later
	// eviction cannot write pages the commit never made durable — once
	// no reader that may have seen them still pins them.
	var drops []storage.PID
	for _, p := range t.pendings {
		drops = append(drops, p.Unpin()...)
	}
	db.deferFrees(t.id, drops, nil)
	t.releaseLocks()
	db.endTxn(t.id)
	t.writer.Close()
	db.commit.release(t)
	t.waitC <- err
}

// CommitBatchStats reports group-commit batching on the pipeline:
// the number of shared WAL syncs issued for commit batches and the number
// of transactions those syncs covered. txns/flushes > 1 means concurrent
// commits are sharing durability syncs.
func (db *DB) CommitBatchStats() (flushes, txns int64) {
	return db.commit.batches.Load(), db.commit.batchTxns.Load()
}
