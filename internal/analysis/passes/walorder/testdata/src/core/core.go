// Package core exercises walorder in the committer package: syncs are
// legal only inside commit/checkpoint protocol functions, and direct
// page writes need an explicit, reasoned allow (the dual-slot checkpoint
// write in internal/core/recover.go is the real-tree example).
package core

import (
	"devutil"
	"storage"
	"wal"
)

type db struct {
	dev storage.Device
	w   *wal.Writer
}

// ---- violations ----

func (d *db) readBlobAndSync() error {
	return d.dev.Sync() // want `Device.Sync outside internal/wal and the core committer`
}

func (d *db) repairPages(buf []byte) error {
	return d.dev.WritePages(3, 1, buf) // want `extent write-back \(WritePages\) outside internal/buffer and internal/storage`
}

// stageRefcountHere appends a ledger record from outside ledger.go:
// even core's own committer files may not mint RecRefDelta batches.
func (d *db) stageRefcountHere(txn uint64, payload []byte) error {
	_, err := d.w.AppendLSN(txn, wal.RecRefDelta, payload) // want `RecRefDelta appended outside the dedup ledger`
	return err
}

// ---- conforming code ----

// stageTreeWrite appends a non-ledger record: unrestricted in core.
func (d *db) stageTreeWrite(txn uint64, payload []byte) error {
	_, err := d.w.AppendLSN(txn, wal.RecBlobState, payload)
	return err
}

// dispatchRecord reads the record type; only appends are ownership-
// restricted, so recovery-style dispatch on RecRefDelta is fine in core.
func dispatchRecord(t wal.RecType) bool {
	return t == wal.RecRefDelta
}

// finishCommitBatch is committer code: the shared group-commit sync.
func (d *db) finishCommitBatch() error {
	return d.dev.Sync()
}

// writeCheckpointSlot mirrors the dual-slot checkpoint write: a direct
// page write justified in-tree with a reasoned allow.
func (d *db) writeCheckpointSlot(slot storage.PID, buf []byte) error {
	//blobvet:allow dual-slot checkpoint image: written outside the pool by design, fenced by its own epoch header
	return d.dev.WritePages(slot, 1, buf)
}

func (d *db) readPages(buf []byte) error {
	return d.dev.ReadPages(1, 1, buf) // reads are not ordering-sensitive
}

// ---- closures ----

// strayClosureSync: wrapping the sync in a closure grants no exemption.
func (d *db) strayClosureSync() error {
	fn := func() error {
		return d.dev.Sync() // want `Device.Sync outside internal/wal and the core committer`
	}
	return fn()
}

// ---- transitive sync (summary closure) ----

// drainMetadata reaches Device.Sync two hops away, through a package the
// analyzer never scans: only the effect summaries can attribute it here.
func (d *db) drainMetadata() error {
	return devutil.FlushMeta(d.dev) // want `call to FlushMeta reaches Device\.Sync \(devutil\.FlushMeta → devutil\.finish → Device\.Sync\) outside internal/wal and the core committer`
}

// commitViaHelper: the committer owns its sync however it delegates it.
func (d *db) commitViaHelper() error {
	return devutil.FlushMeta(d.dev)
}
