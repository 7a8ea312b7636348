package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"blobdb/internal/blob"
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
//  1. Copy phase — with writes still flowing, install on dst every row
//     whose owner under the NEXT ring is dst, through the engine's
//     transfer primitive (core.Install, DESIGN.md §13). Repeat as
//     converging delta rounds: each round recopies only keys that
//     changed (and removes keys that were deleted) since the last one.
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

// rowVersion is a comparable fingerprint of one row: the ETag for BLOB
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
				if err := c.moveRow(ctx, s, dst, rel, key); err != nil {
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
			if err := dst.DB().Delete(ctx, rel, []byte(key)); err != nil {
				return changed, nil, fmt.Errorf("shard %d: delete %q/%q: %w", dst.id, rel, key, err)
			}
			changed++
		}
	}
	return changed, moved, nil
}

// moveRow installs one source row on dst with core.Install (DESIGN.md
// §13). The source row stays locked for the whole move: the engine's
// readers don't lock, but a concurrent overwrite would commit and free
// the extents this read streams from.
func (c *Cluster) moveRow(ctx context.Context, src, dst *Shard, rel, key string) error {
	stx := src.DB().BeginCtx(ctx, nil)
	defer stx.Commit()
	k := []byte(key)
	if err := stx.LockKey(rel, k); err != nil {
		return err
	}
	var row core.Row
	st, err := stx.BlobState(rel, k)
	if errors.Is(err, core.ErrNotBlob) {
		row.Inline, err = stx.Get(rel, k)
	} else if err == nil {
		row = core.RowOf(nil, st)
	}
	if errors.Is(err, core.ErrNotFound) {
		// Deleted between the scan and the move; the next round's
		// reconciliation pass removes it from dst.
		return nil
	}
	if err != nil {
		return fmt.Errorf("shard %d: read %q/%q: %w", src.id, rel, key, err)
	}
	out, err := dst.DB().Install(ctx, rel, k, row, func(fn core.ContentFn) error { return stx.ReadContent(rel, k, fn) })
	if err != nil {
		return fmt.Errorf("shard %d: rebalance: %w", dst.id, err)
	}
	if out == core.TransferCopied {
		c.rebalanceBytes.Add(int64(row.Size) + int64(len(row.Inline)))
	}
	if out == core.TransferCopied || out == core.TransferAdopted {
		c.rebalanceBlobs.Add(1)
	}
	return nil
}

// cleanupMoved deletes the source rows the cutover handed to the
// destination. The ring no longer routes to them, so nothing writes them
// after the swap, and a crash mid-cleanup leaves at worst a redundant
// source copy that the ring never serves.
func cleanupMoved(ctx context.Context, moved []sourceRow) error {
	for _, r := range moved {
		if err := r.src.DB().Delete(ctx, r.rel, []byte(r.key)); err != nil {
			return fmt.Errorf("shard %d: delete %q/%q: %w", r.src.id, r.rel, r.key, err)
		}
	}
	return nil
}
