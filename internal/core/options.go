package core

import (
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// Option configures New and RecoverDevice — the only construction API.
// Each option documents the knob it sets; unset knobs take the defaults
// described on the options fields.
type Option func(*options)

// WithPoolPages sizes the buffer pool in pages (default: 1/4 of the
// device).
func WithPoolPages(n int) Option { return func(o *options) { o.PoolPages = n } }

// WithLogPages sizes the WAL region in pages (default: 1/16 of the
// device).
func WithLogPages(n uint64) Option { return func(o *options) { o.LogPages = n } }

// WithCkptPages sizes the checkpoint region in pages (default: 1/8 of the
// device).
func WithCkptPages(n uint64) Option { return func(o *options) { o.CkptPages = n } }

// WithHashTablePool selects the Our.ht baseline buffer manager (page-
// granular hash table) instead of the vmcache-style pool.
func WithHashTablePool(on bool) Option { return func(o *options) { o.HashTablePool = on } }

// WithPhysicalBlobLog selects the Our.physlog baseline: blob content is
// appended to the WAL in addition to the Blob State.
func WithPhysicalBlobLog(on bool) Option { return func(o *options) { o.PhysicalBlobLog = on } }

// WithTailExtents enables §III-A tail extents: minimal internal
// fragmentation, slower growth.
func WithTailExtents(on bool) Option { return func(o *options) { o.UseTailExtents = on } }

// WithAliasPages sizes each worker-local aliasing area in pages (default
// 1024 pages = 4 MB).
func WithAliasPages(n int) Option { return func(o *options) { o.WorkerLocalAliasPages = n } }

// WithWALBufferCap sizes per-transaction WAL buffers in bytes (default
// 10 MB).
func WithWALBufferCap(n int) Option { return func(o *options) { o.WALBufferCap = n } }

// WithAsyncCommit does nothing: every write transaction commits through
// the group committer (commit.go). It is kept for perfbench's engine
// driver and goes with that module's next change.
func WithAsyncCommit(bool) Option { return func(*options) {} }

// WithQueueDepth bounds how many device commands the buffer pool's miss
// loads, eviction write-back and the committer's extent flush run at once
// (default storage.DefaultQueueDepth).
func WithQueueDepth(n int) Option { return func(o *options) { o.QueueDepth = n } }

// WithInlineQueue makes the committer wait for each batch's extent flush
// to land before it forms the next batch. The flush still runs on its own
// goroutine, but the device observes operations in the committer's order
// with no overlap — crashsim selects this so FaultDevice's op-hash replay
// stays deterministic.
func WithInlineQueue(on bool) Option { return func(o *options) { o.InlineQueue = on } }

// New initializes a database over dev with functional options:
//
//	db, err := core.New(dev, core.WithPoolPages(1<<14))
func New(dev storage.Device, opts ...Option) (*DB, error) {
	o := options{Dev: dev}
	for _, f := range opts {
		f(&o)
	}
	return open(o)
}

// RecoverDevice rebuilds the database from dev after a crash, with the
// same functional options as New. m may be nil; benchmarks pass a meter
// to account recovery I/O.
func RecoverDevice(dev storage.Device, m *simtime.Meter, opts ...Option) (*DB, *RecoveryReport, error) {
	o := options{Dev: dev}
	for _, f := range opts {
		f(&o)
	}
	return recoverDB(o, m)
}
