// Package maint exercises walorder in the defragmenter: relocation
// copies must route through core's Txn API (which flushes via the
// buffer pool), never by touching the device or
// the ledger's WAL records directly.
package maint

import (
	"storage"
	"wal"
)

type defrag struct {
	dev storage.Device
	w   *wal.Writer
}

// ---- violations ----

// forceCopyDurable syncs the device to "make sure" a relocated copy is
// durable: a defragmenter-issued sync can promote a half-copied extent
// ahead of its remap record.
func (d *defrag) forceCopyDurable() error {
	return d.dev.Sync() // want `Device.Sync outside internal/wal and the core committer`
}

// writeCopyDirect bypasses the pool for the relocation copy.
func (d *defrag) writeCopyDirect(dst storage.PID, buf []byte) error {
	return d.dev.WritePages(dst, 1, buf) // want `extent write-back \(WritePages\) outside internal/buffer and internal/storage`
}

// logOwnRefDelta minting a ledger record from maint forks the recovery
// contract even without an append — referencing the constant is flagged.
func (d *defrag) logOwnRefDelta(txn uint64, payload []byte) error {
	_, err := d.w.AppendLSN(txn, wal.RecRefDelta, payload) // want `refcount ledger WAL record \(RecRefDelta\) referenced outside internal/core`
	return err
}

// ---- conforming code ----

// scoreRegion reads are not ordering-sensitive.
func (d *defrag) scoreRegion(pid storage.PID, buf []byte) error {
	return d.dev.ReadPages(pid, 1, buf)
}
