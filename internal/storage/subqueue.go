package storage

import (
	"sync/atomic"

	"blobdb/internal/simtime"
)

// SubQueueStats is a point-in-time snapshot of a submission queue's
// counters, exported by blobserver /debug/vars under the pool namespace.
type SubQueueStats struct {
	Depth       int   // configured queue depth (max concurrent commands)
	Inflight    int64 // commands issued but not yet completed
	Submitted   int64 // total commands issued
	Completed   int64 // total completions
	SubmitWaits int64 // commands that waited for a free slot
}

// SubQueue is the device's queue-depth gate: at most Depth commands run
// against the device at once. Commands are issued through the Device the
// queue returns and run on the caller's goroutine; a caller that finds
// every slot busy waits for one — the device's queue-depth backpressure.
// The gate starts no goroutine and holds no state while idle, so there is
// nothing to close.
type SubQueue struct {
	dev   Device
	slots chan struct{}

	inflight    atomic.Int64
	submitted   atomic.Int64
	completed   atomic.Int64
	submitWaits atomic.Int64
}

// DefaultQueueDepth is the queue depth used when a caller does not size
// the queue explicitly — a shallow NVMe-ish queue, deep enough that 32
// concurrent readers do not serialize on slots.
const DefaultQueueDepth = 64

// NewSubQueue gates dev at depth concurrent commands (<= 0 selects
// DefaultQueueDepth).
func NewSubQueue(dev Device, depth int) *SubQueue {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &SubQueue{dev: dev, slots: make(chan struct{}, depth)}
}

// Device returns the gated device: every read or write issued through it
// holds one queue slot while it runs.
func (q *SubQueue) Device() Device { return gatedDevice{Device: q.dev, q: q} }

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

// enter takes a slot, waiting while the queue is at depth.
func (q *SubQueue) enter() {
	select {
	case q.slots <- struct{}{}:
	default:
		q.submitWaits.Add(1)
		q.slots <- struct{}{}
	}
	q.submitted.Add(1)
	q.inflight.Add(1)
}

// leave returns a command's slot.
func (q *SubQueue) leave() {
	q.inflight.Add(-1)
	q.completed.Add(1)
	<-q.slots
}

// gatedDevice issues every read and write of the wrapped device under a
// queue slot; geometry, Sync and Stats pass through (the pool never syncs;
// the WAL syncs its own device).
type gatedDevice struct {
	Device
	q *SubQueue
}

func (d gatedDevice) ReadPages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	d.q.enter()
	defer d.q.leave()
	return d.Device.ReadPages(m, pid, n, buf)
}

func (d gatedDevice) WritePages(m *simtime.Meter, pid PID, n int, buf []byte) error {
	d.q.enter()
	defer d.q.leave()
	return d.Device.WritePages(m, pid, n, buf)
}

func (d gatedDevice) ReadPagesVec(m *simtime.Meter, segs []Seg) error {
	d.q.enter()
	defer d.q.leave()
	return d.Device.ReadPagesVec(m, segs)
}

func (d gatedDevice) WritePagesVec(m *simtime.Meter, segs []Seg) error {
	d.q.enter()
	defer d.q.leave()
	return d.Device.WritePagesVec(m, segs)
}
