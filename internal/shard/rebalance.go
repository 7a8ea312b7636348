package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"blobdb/internal/blob"
	"blobdb/internal/buffer"
	"blobdb/internal/core"
)

// ErrRebalanceInProgress reports a second Rebalance starting while one is
// already streaming. Reshards are serialized: overlapping ring edits have
// no sane merge.
var ErrRebalanceInProgress = errors.New("shard: rebalance already in progress")

// maxDeltaRounds bounds the converging copy rounds before the cutover
// barrier. Each round only recopies keys written since the previous
// round, so under any sane write rate the delta shrinks geometrically;
// the bound just keeps a pathological writer from deferring cutover
// forever (the final barrier round syncs whatever is left).
const maxDeltaRounds = 8

// Rebalance moves shard dst (previously registered via AddShard but not
// yet a ring member) into the routing ring without downtime:
//
//  1. Copy phase — with writes still flowing, stream every blob whose
//     owner under the NEXT ring is dst from its current shard to dst,
//     via the engine's streaming blob writer, validating each copy by
//     ETag. Repeat as converging delta rounds: each round recopies only
//     keys that changed (and removes keys that were deleted) since the
//     last one.
//  2. Cutover barrier — take the topology write lock, which waits out
//     every in-flight routed operation, run one final delta round (now
//     nothing can write), and swap the ring pointer. From here reads and
//     writes for the moved slice route to dst.
//  3. Cleanup — delete from the old shards exactly the source rows the
//     final round saw at the cutover.
//
// Crash safety is positional: before the cutover the ring never routed
// to dst, so the source still owns every byte; the final round runs with
// no routed operation in flight, so at the swap dst holds a verified copy
// of every moved row and the recorded source rows are garbage. After the
// swap, routed writes and deletes of those keys reach dst only — a moved
// key deleted through the router is gone from dst before cleanup runs,
// and that is a legitimate state, not a missing copy. A crash at ANY
// point therefore loses no blob on either side — the crashsim topology
// schedules pin exactly this.
func (c *Cluster) Rebalance(ctx context.Context, dst int) error {
	if c.rebalancing.Swap(true) {
		return ErrRebalanceInProgress
	}
	defer c.rebalancing.Store(false)

	moved, err := c.cutover(ctx, dst)
	if err != nil {
		return err
	}
	return cleanupMoved(ctx, moved)
}

// cutover runs the copy phase and the cutover barrier of Rebalance and
// returns the source rows the final round handed to dst.
func (c *Cluster) cutover(ctx context.Context, dst int) ([]sourceRow, error) {
	c.mu.RLock()
	cur := c.ring
	if dst < 0 || dst >= len(c.shards) {
		c.mu.RUnlock()
		return nil, fmt.Errorf("shard: no shard %d", dst)
	}
	if cur.Has(dst) {
		c.mu.RUnlock()
		return nil, fmt.Errorf("shard: shard %d is already a ring member", dst)
	}
	d := c.shards[dst]
	srcs := make([]*Shard, 0, len(c.shards))
	for _, s := range c.shards {
		if !cur.Has(s.id) {
			continue
		}
		// A fenced member's slice is unreachable: resharding around it
		// would cut the ring over to a destination that never received
		// those keys. Refuse instead of silently dropping them.
		if s.down.Load() {
			c.mu.RUnlock()
			return nil, fmt.Errorf("shard %d: cannot reshard around a fenced ring member: %w", s.id, ErrShardDown)
		}
		srcs = append(srcs, s)
	}
	c.mu.RUnlock()
	if d.Down() {
		return nil, fmt.Errorf("shard %d: %w", dst, ErrShardDown)
	}
	if err := c.SyncRelations(dst); err != nil {
		return nil, err
	}
	next := cur.Add(dst)
	rels := c.Relations()

	// Copy phase: converge while writes keep flowing.
	for round := 0; round < maxDeltaRounds; round++ {
		n, _, err := c.syncRound(ctx, srcs, d, rels, next)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}

	// Cutover barrier: the write lock waits for every in-flight routed
	// operation (each holds the read lock for its full duration), the
	// final round syncs the quiesced delta, and the ring swap is one
	// pointer store. Locked work is bounded by the last round's delta,
	// not the slice size.
	c.mu.Lock()
	_, moved, err := c.syncRound(ctx, srcs, d, rels, next)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.ring = next
	c.mu.Unlock()
	return moved, nil
}

// sourceRow is one row of a source shard that the next ring routes to
// the destination.
type sourceRow struct {
	src      *Shard
	rel, key string
}

// sortedKeys returns m's keys in order. Rebalance touches rows in sorted
// order so its device-op sequence is a deterministic function of the data
// — the crashsim topology schedules replay reshard crashes bit-identically
// by (trace-seed, crashpoint).
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// version is a comparable fingerprint of one row: the ETag for BLOB
// columns, the raw bytes for inline rows.
func rowVersion(inline []byte, st *blob.State) string {
	if st != nil {
		return "b:" + st.ETag()
	}
	return "i:" + string(inline)
}

// movingKeys lists the keys of rel on shard s that the next ring assigns
// to dst, with their current version fingerprints.
func movingKeys(ctx context.Context, s *Shard, rel string, next *Ring, dst int) (map[string]string, error) {
	tx := s.DB().BeginCtx(ctx, nil)
	defer tx.Commit()
	out := map[string]string{}
	err := tx.Scan(rel, nil, func(key, inline []byte, st *blob.State) bool {
		if next.Shard(rel, key) == dst {
			out[string(key)] = rowVersion(inline, st)
		}
		return true
	})
	if errors.Is(err, core.ErrRelationNotFound) {
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard %d: scan %q: %w", s.id, rel, err)
	}
	return out, nil
}

// syncRound makes dst's copy of the moving slice of every relation match
// the sources. It returns how many rows it had to touch (zero means the
// round observed no drift) and the source rows of the moving slice.
func (c *Cluster) syncRound(ctx context.Context, srcs []*Shard, dst *Shard, rels []string, next *Ring) (int, []sourceRow, error) {
	changed := 0
	var moved []sourceRow
	for _, rel := range rels {
		have, err := movingKeys(ctx, dst, rel, next, dst.id)
		if err != nil {
			return changed, nil, err
		}
		want := map[string]bool{}
		for _, s := range srcs {
			if s.id == dst.id {
				continue
			}
			moving, err := movingKeys(ctx, s, rel, next, dst.id)
			if err != nil {
				return changed, nil, err
			}
			for _, key := range sortedKeys(moving) {
				want[key] = true
				moved = append(moved, sourceRow{src: s, rel: rel, key: key})
				if have[key] == moving[key] {
					continue
				}
				if err := c.copyRow(ctx, s, dst, rel, key); err != nil {
					return changed, nil, err
				}
				changed++
			}
		}
		// Keys deleted at the source since the last round must not
		// resurrect from dst after cutover.
		for _, key := range sortedKeys(have) {
			if want[key] {
				continue
			}
			if err := deleteRow(ctx, dst, rel, key); err != nil {
				return changed, nil, err
			}
			changed++
		}
	}
	return changed, moved, nil
}

// copyRow streams one row from src to dst and validates the copy. BLOB
// columns go through the engine's streaming writer, which hashes as it
// writes: the destination ETag is recomputed from the bytes that actually
// arrived and must equal the source ETag of the snapshot we read — any
// corruption in flight fails the reshard instead of surfacing later.
func (c *Cluster) copyRow(ctx context.Context, src, dst *Shard, rel, key string) error {
	stx := src.DB().BeginCtx(ctx, nil)
	defer stx.Commit()
	// Lock the source row for the whole copy: the engine's readers don't
	// lock, but this read keeps the blob's extents pinned while streaming
	// — an unlocked concurrent overwrite would commit and free them
	// mid-copy.
	if err := stx.LockKey(rel, []byte(key)); err != nil {
		return err
	}
	srcSt, err := stx.BlobState(rel, []byte(key))
	switch {
	case errors.Is(err, core.ErrKeyNotFound):
		// Deleted between the scan and the copy; the next round's
		// reconciliation pass removes it from dst.
		return nil
	case errors.Is(err, core.ErrNotBlob):
		return copyInline(ctx, stx, dst, rel, key, &c.rebalanceBytes, &c.rebalanceBlobs)
	case err != nil:
		return fmt.Errorf("shard %d: state %q/%q: %w", src.id, rel, key, err)
	}

	dtx := dst.DB().BeginCtx(ctx, nil)
	w, err := dtx.CreateBlob(ctx, rel, []byte(key))
	if err != nil {
		dtx.Abort()
		return fmt.Errorf("shard %d: create %q/%q: %w", dst.id, rel, key, err)
	}
	err = stx.ReadBlob(rel, []byte(key), func(view *buffer.BlobView) error {
		_, err := io.Copy(w, io.NewSectionReader(view, 0, int64(view.Len())))
		return err
	})
	if err == nil {
		err = w.Close()
	} else {
		w.Abort()
	}
	if err != nil {
		dtx.Abort()
		return fmt.Errorf("rebalance copy %q/%q: %w", rel, key, err)
	}
	if got := w.State().ETag(); got != srcSt.ETag() {
		dtx.Abort()
		return fmt.Errorf("rebalance copy %q/%q: etag mismatch: src %s dst %s", rel, key, srcSt.ETag(), got)
	}
	if err := dtx.CommitWait(); err != nil {
		return fmt.Errorf("shard %d: commit copy %q/%q: %w", dst.id, rel, key, err)
	}
	c.rebalanceBytes.Add(int64(srcSt.Size))
	c.rebalanceBlobs.Add(1)
	return nil
}

// copyInline moves a non-BLOB row; stx already holds the source read.
func copyInline(ctx context.Context, stx *core.Txn, dst *Shard, rel, key string, bytesMoved, blobsMoved *atomic.Int64) error {
	val, err := stx.Get(rel, []byte(key))
	if errors.Is(err, core.ErrKeyNotFound) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("rebalance inline %q/%q: %w", rel, key, err)
	}
	dtx := dst.DB().BeginCtx(ctx, nil)
	if err := dtx.Put(rel, []byte(key), val); err != nil {
		dtx.Abort()
		return fmt.Errorf("shard %d: put %q/%q: %w", dst.id, rel, key, err)
	}
	if err := dtx.CommitWait(); err != nil {
		return fmt.Errorf("shard %d: commit inline %q/%q: %w", dst.id, rel, key, err)
	}
	bytesMoved.Add(int64(len(val)))
	blobsMoved.Add(1)
	return nil
}

// deleteRow removes one row from a shard, tolerating its absence.
func deleteRow(ctx context.Context, s *Shard, rel, key string) error {
	tx := s.DB().BeginCtx(ctx, nil)
	err := tx.DeleteBlob(rel, []byte(key))
	if errors.Is(err, core.ErrKeyNotFound) {
		tx.Abort()
		return nil
	}
	if err != nil {
		tx.Abort()
		return fmt.Errorf("shard %d: delete %q/%q: %w", s.id, rel, key, err)
	}
	if err := tx.CommitWait(); err != nil {
		return fmt.Errorf("shard %d: commit delete %q/%q: %w", s.id, rel, key, err)
	}
	return nil
}

// cleanupMoved deletes the source rows the cutover handed to the
// destination. The ring no longer routes to them, so nothing writes them
// after the swap, and a crash mid-cleanup leaves at worst a redundant
// source copy that the ring never serves.
func cleanupMoved(ctx context.Context, moved []sourceRow) error {
	for _, r := range moved {
		if err := deleteRow(ctx, r.src, r.rel, r.key); err != nil {
			return err
		}
	}
	return nil
}
