package storage

import (
	"sync/atomic"
	"time"

	"blobdb/internal/simtime"
)

// Vec is one submission queue entry: an ordered group of device operations
// executed as a unit. Reads complete first, then writes, then — when Sync is
// set — a device sync covering them. A Vec with a single multi-page read is
// the §III-D cold-read shape: one submission, one command latency.
type Vec struct {
	Reads  []Seg
	Writes []Seg
	Sync   bool
}

// Ticket is the completion handle for one submission. It is created by
// SubQueue.Submit or SubQueue.SubmitFunc and redeemed with SubQueue.Wait;
// waiting the same ticket from several goroutines is allowed (the
// committer's pipeline barrier and the checkpoint writer may both join
// one flush flight).
type Ticket struct {
	done chan struct{}
	err  error
}

// SubQueueStats is a point-in-time snapshot of a submission queue's
// counters, exported by blobserver /debug/vars under the pool namespace.
type SubQueueStats struct {
	Depth       int   // configured queue depth (max in-flight submissions)
	Inflight    int64 // submissions issued but not yet completed
	Submitted   int64 // total Submit calls
	Completed   int64 // total completions
	SubmitWaits int64 // Submit calls that blocked on a full queue
}

// SubQueue is an io_uring-style submission/completion queue over a Device.
// Submit enqueues a Vec and returns immediately with a Ticket; a completion
// goroutine executes the operations against the inner device and signals the
// ticket. Queue depth is bounded: when Depth submissions are in flight,
// Submit blocks until a completion frees a slot — the device's queue-depth
// backpressure, not an unbounded goroutine fan-out.
//
// Completions for distinct tickets may run concurrently (a real device
// serves its queue with internal parallelism), so two in-flight submissions
// have no ordering relative to each other. A caller that needs ordering
// waits on the first ticket before submitting the second — which is exactly
// what the buffer pool does for its synchronous miss reads, keeping
// crashsim's op-hash replay deterministic.
//
// The meter passed to Submit is charged on the completion goroutine;
// simtime.Meter is safe for that. Submitters overlapping other metered work
// with an in-flight ticket therefore see their meter advance concurrently.
type SubQueue struct {
	dev    Device
	slots  chan struct{}
	inline bool

	inflight    atomic.Int64
	submitted   atomic.Int64
	completed   atomic.Int64
	submitWaits atomic.Int64
}

// DefaultQueueDepth is the submission queue depth used when a caller does
// not size the queue explicitly — a shallow NVMe-ish queue, deep enough
// that 32 concurrent readers do not serialize on slots.
const DefaultQueueDepth = 64

// NewSubQueue builds a submission queue over dev with the given depth
// (<= 0 selects DefaultQueueDepth; a depth of 1 is clamped to 2, because
// the committer's flush flight may itself submit the pool's eviction
// write-back and a single slot would deadlock that nesting). The queue has
// no background state when idle — each submission runs on its own bounded
// completion goroutine — so there is nothing to close.
func NewSubQueue(dev Device, depth int) *SubQueue {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	if depth < 2 {
		depth = 2
	}
	return &SubQueue{dev: dev, slots: make(chan struct{}, depth)}
}

// NewInlineSubQueue builds a queue whose submissions execute synchronously
// on the submitting goroutine: Submit runs the Vec to completion and
// returns an already-signalled ticket. Callers see the exact same API, but
// the device observes operations in caller order with no concurrency —
// which is what crashsim needs to keep FaultDevice's op-hash replay
// deterministic while exercising the same pipelined code paths the real
// server runs overlapped.
func NewInlineSubQueue(dev Device) *SubQueue {
	return &SubQueue{dev: dev, inline: true}
}

// Submit enqueues v and returns its completion ticket. It blocks only while
// the queue is at depth; the device operations themselves run on the
// completion goroutine. On an inline queue the Vec runs to completion
// before Submit returns.
func (q *SubQueue) Submit(m *simtime.Meter, v Vec) *Ticket {
	return q.submit(m, func(m *simtime.Meter) error { return q.run(m, v) })
}

// SubmitFunc enqueues an arbitrary unit of device work — the committer's
// extent write-back, which flushes through the buffer pool rather than as
// a flat Vec — under the same depth accounting and completion signalling
// as Submit. fn is executed once, on the completion goroutine (or inline
// on an inline queue), with the meter passed here.
func (q *SubQueue) SubmitFunc(m *simtime.Meter, fn func(*simtime.Meter) error) *Ticket {
	return q.submit(m, fn)
}

func (q *SubQueue) submit(m *simtime.Meter, fn func(*simtime.Meter) error) *Ticket {
	if q.inline {
		q.submitted.Add(1)
		t := &Ticket{done: closedDone}
		t.err = fn(m)
		q.completed.Add(1)
		return t
	}
	select {
	case q.slots <- struct{}{}:
	default:
		q.submitWaits.Add(1)
		q.slots <- struct{}{}
	}
	q.submitted.Add(1)
	q.inflight.Add(1)
	t := &Ticket{done: make(chan struct{})}
	go q.complete(m, fn, t)
	return t
}

// closedDone is the pre-signalled completion channel shared by all inline
// tickets: the work is finished before Submit returns, so Wait never blocks.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// complete executes one submission and signals its ticket — the per-entry
// completion goroutine.
func (q *SubQueue) complete(m *simtime.Meter, fn func(*simtime.Meter) error, t *Ticket) {
	t.err = fn(m)
	q.inflight.Add(-1)
	q.completed.Add(1)
	<-q.slots
	close(t.done)
}

func (q *SubQueue) run(m *simtime.Meter, v Vec) error {
	if len(v.Reads) > 0 {
		if err := ReadVec(q.dev, m, v.Reads); err != nil {
			return err
		}
	}
	if len(v.Writes) > 0 {
		if err := WriteVec(q.dev, m, v.Writes); err != nil {
			return err
		}
	}
	if v.Sync {
		return q.dev.Sync(m)
	}
	return nil
}

// Wait blocks until t's submission has completed and returns its error.
func (q *SubQueue) Wait(t *Ticket) error {
	<-t.done
	return t.err
}

// Device returns the wrapped device (metrics and tests reach through).
func (q *SubQueue) Device() Device { return q.dev }

// Stats snapshots the queue counters.
func (q *SubQueue) Stats() SubQueueStats {
	return SubQueueStats{
		Depth:       cap(q.slots),
		Inflight:    q.inflight.Load(),
		Submitted:   q.submitted.Load(),
		Completed:   q.completed.Load(),
		SubmitWaits: q.submitWaits.Load(),
	}
}

// AsyncWriteDevice wraps a Device so that writes and syncs are charged as
// *asynchronous* I/O: the caller pays only its bandwidth share, not the
// per-command latency.
//
// This models the paper's commit path (§III-C, §V-A): extent flushes are
// "multiple asynchronous I/O requests" and the WAL uses group commit, so
// "the critical path usually does not involve I/O". With a deep NVMe queue
// the device latency overlaps with subsequent transactions; what cannot be
// hidden is bandwidth, which is still charged. Reads stay synchronous —
// a transaction cannot proceed without the data.
type AsyncWriteDevice struct {
	inner Device
	cost  *simtime.DeviceCostModel
}

// NewAsyncWriteDevice wraps dev. cost supplies the bandwidth figures; it
// may be nil for a free device.
func NewAsyncWriteDevice(dev Device, cost *simtime.DeviceCostModel) *AsyncWriteDevice {
	return &AsyncWriteDevice{inner: dev, cost: cost}
}

// PageSize implements Device.
func (d *AsyncWriteDevice) PageSize() int { return d.inner.PageSize() }

// NumPages implements Device.
func (d *AsyncWriteDevice) NumPages() uint64 { return d.inner.NumPages() }

// Stats implements Device.
func (d *AsyncWriteDevice) Stats() *Stats { return d.inner.Stats() }

// ReadPages implements Device: reads are synchronous and charged in full.
func (d *AsyncWriteDevice) ReadPages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	return d.inner.ReadPages(m, pid, n, buf)
}

// WritePages implements Device: the data moves now (stats count it), but
// the worker is charged only the bandwidth share.
func (d *AsyncWriteDevice) WritePages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	if err := d.inner.WritePages(nil, pid, n, buf); err != nil {
		return err
	}
	if d.cost != nil && d.cost.WriteBW > 0 {
		m.Charge(time.Duration(float64(n*d.inner.PageSize()) / d.cost.WriteBW * 1e9))
	}
	return nil
}

// Sync implements Device: the group-commit leader syncs in the background;
// followers piggyback, so no latency lands on the worker.
func (d *AsyncWriteDevice) Sync(m *simtime.Meter) error {
	return d.inner.Sync(nil)
}

// costModel lets vectored helpers charge batched costs consistently: async
// writes have no latency component, reads keep the full model.
func (d *AsyncWriteDevice) costModel() *simtime.DeviceCostModel {
	if d.cost == nil {
		return nil
	}
	c := *d.cost
	c.WriteLatency = 0
	c.RandomPenalty = 1
	return &c
}
