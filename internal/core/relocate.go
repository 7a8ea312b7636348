package core

import (
	"fmt"
	"sort"

	"blobdb/internal/blob"
	"blobdb/internal/storage"
)

// Online extent relocation — the engine half of the defragmenter
// (internal/maint drives it; this file owns every invariant).
//
// Protocol per move, designed so a crash at ANY point loses nothing:
//
//  1. Lock the row (2PL): no writer can replace or delete the blob while
//     the move is in flight. Readers stay lock-free — they keep reading
//     the OLD extent from their state snapshot, which remains valid
//     because the old extent is freed through the epoch-deferred
//     reclaimer, never inline.
//  2. Re-read the state under the lock and verify the planned (tier, pid)
//     still matches; planning runs without locks and may be stale.
//  3. Skip shared extents: a deduplicated sequence has co-owners whose
//     tuples all embed the old PID, and a row lock on one key cannot
//     remap the others atomically.
//  4. Allocate the destination strictly BELOW the source (AllocExtentBelow
//     reuses free space only), pin the source, copy the used bytes, and
//     flush the copy to the device BEFORE staging anything. This inverts
//     the writer's §III-C order (state durable first, extents second) on
//     purpose: content is unchanged, so if the remap record never becomes
//     durable the old tuple still points at the old — untouched — extent,
//     and if it does become durable the new extent already holds valid
//     bytes. Either way SHA-256 validation passes and the key survives.
//     The flushed-but-never-committed copy is reclaimed by the allocator
//     rebuild at recovery (no tuple references it).
//  5. Stage the remapped Blob State as a normal RecBlobState tree write,
//     refresh the ordering and dedup indexes, queue the OLD extent on
//     t.frees (epoch-deferred, ledger-aware), and register the new extent
//     in a Pending so an abort returns it to the allocator.
type RelocTarget struct {
	Rel  string
	Key  []byte
	Tier int         // index into State.Extents
	PID  storage.PID // expected current extent address (stale-plan check)
}

// PlanRelocations scans every relation for tier extents worth moving down:
// unshared extents at the highest device addresses, which are the ones
// pinning the allocator's high-water mark up. Returns at most max targets,
// highest address first (moving those first frees the top of the region so
// ShrinkHWM can retract it). Planning takes no row locks; RelocateExtent
// re-validates under the lock.
func (db *DB) PlanRelocations(max int) []RelocTarget {
	if max <= 0 {
		return nil
	}
	var cands []RelocTarget
	for _, name := range db.Relations() {
		r, err := db.Relation(name)
		if err != nil {
			continue
		}
		r.mu.RLock()
		r.tree.Ascend(nil, func(k, v []byte) bool {
			tag, payload, err := decodeValue(v)
			if err != nil || tag != tagBlob {
				return true
			}
			st, err := blob.Decode(payload)
			if err != nil {
				return true
			}
			for i, pid := range st.Extents {
				cands = append(cands, RelocTarget{
					Rel: name, Key: append([]byte(nil), k...), Tier: i, PID: pid,
				})
			}
			return true
		})
		r.mu.RUnlock()
	}
	// Shared sequences are immovable (invariant 3); drop them at plan time
	// so the mover does not waste transactions on guaranteed skips.
	db.dedup.mu.Lock()
	kept := cands[:0]
	for _, c := range cands {
		if _, shared := db.dedup.ledger[c.PID]; !shared {
			kept = append(kept, c)
		}
	}
	db.dedup.mu.Unlock()
	sort.Slice(kept, func(i, j int) bool { return kept[i].PID > kept[j].PID })
	if len(kept) > max {
		kept = kept[:max]
	}
	return kept
}

// RelocateExtent moves one tier extent of one blob to a lower device
// address. It returns (false, nil) when the move is not possible or no
// longer useful — the plan went stale, the sequence is shared, or no free
// slot exists below the source — so the defragmenter can treat skips as
// routine. The move is part of the transaction: it commits (and becomes
// durable) or aborts (and the copy is discarded) with everything else in t.
func (t *Txn) RelocateExtent(tgt RelocTarget) (bool, error) {
	if err := t.check(); err != nil {
		return false, err
	}
	r, err := t.db.Relation(tgt.Rel)
	if err != nil {
		return false, err
	}
	t.lock(tgt.Rel, tgt.Key)

	// Re-read under the row lock; the plan may predate a writer.
	r.mu.RLock()
	v, ok := r.tree.Get(tgt.Key)
	r.mu.RUnlock()
	if !ok {
		return false, nil
	}
	tag, payload, err := decodeValue(v)
	if err != nil || tag != tagBlob {
		return false, nil
	}
	st, err := blob.Decode(payload)
	if err != nil {
		return false, fmt.Errorf("core: relocate: stored blob state corrupt: %w", err)
	}
	if tgt.Tier >= len(st.Extents) || st.Extents[tgt.Tier] != tgt.PID {
		return false, nil // stale plan
	}
	db := t.db
	db.dedup.mu.Lock()
	_, shared := db.dedup.ledger[tgt.PID]
	db.dedup.mu.Unlock()
	if shared {
		return false, nil
	}

	tiers := db.alloc.Tiers()
	npages := tiers.Size(tgt.Tier)
	ps := db.pool.PageSize()
	// Bytes of this extent actually covered by the blob (the last extent
	// of a sequence may be a partially filled growth frontier).
	used := int(npages) * ps
	if covered := st.Size - tiers.Cum(tgt.Tier-1)*uint64(ps); covered < uint64(used) {
		used = int(covered)
	}
	if used <= 0 {
		return false, nil // degenerate state; nothing to move
	}

	newPID, ok := db.alloc.AllocExtentBelow(tgt.Tier, tgt.PID)
	if !ok {
		return false, nil
	}
	undoAlloc := func() {
		db.pool.Drop(newPID)
		db.alloc.FreeExtent(tgt.Tier, newPID)
	}

	old, err := db.pool.FixExtent(t.meter, tgt.PID, int(npages))
	if err != nil {
		undoAlloc()
		return false, fmt.Errorf("core: relocate: fix source extent %d: %w", tgt.PID, err)
	}
	clone, err := db.pool.CreateExtent(t.meter, newPID, int(npages))
	if err != nil {
		old.Release()
		undoAlloc()
		return false, fmt.Errorf("core: relocate: create extent %d: %w", newPID, err)
	}
	buf := make([]byte, 64<<10)
	for off := 0; off < used; {
		c := used - off
		if c > len(buf) {
			c = len(buf)
		}
		old.ReadAt(buf[:c], off)
		clone.WriteAt(buf[:c], off)
		off += c
	}
	clone.MarkDirty(0, (used+ps-1)/ps)
	old.Release()
	// Invariant 4: the copy is durable before the remap record can be.
	if err := db.pool.FlushExtent(t.meter, clone); err != nil {
		clone.Release()
		undoAlloc()
		return false, fmt.Errorf("core: relocate: flush extent %d: %w", newPID, err)
	}
	clone.Release()

	// The sequence changes identity: retire the old content-index entry
	// (the remapped state re-registers at commit via t.regs).
	db.dedupOnMutate(st)

	newSt := st.Clone()
	newSt.Extents = append([]storage.PID(nil), st.Extents...)
	newSt.Extents[tgt.Tier] = newPID

	// Abort path: Discard(News) returns the copy to the allocator. Commit
	// path: the old extent frees through the epoch-deferred, ledger-aware
	// reclaimer once no reader can hold its snapshot.
	p := db.blobs.NewPending(nil, []blob.FreeSpec{{Tier: tgt.Tier, PID: newPID}})
	if err := t.stageBlob(r, tgt.Key, st, newSt, p, []blob.FreeSpec{{Tier: tgt.Tier, PID: tgt.PID}}); err != nil {
		return false, err
	}
	return true, nil
}
