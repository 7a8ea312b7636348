package core

import (
	"bytes"
	"testing"
)

// TestRelocateMovesTail: the planner names a blob's tail extent, the move
// puts it into free space below, and the high-water mark retracts over the
// vacated top; the blob reads back byte-identical, also after a restart.
// The copy is on the device before the transaction that logs the remapped
// Blob State commits.
func TestRelocateMovesTail(t *testing.T) {
	o := landedOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	v := testContent(2, 40<<10+100)
	putCommitted(t, db, "r", []byte("hole"), testContent(1, 64<<10))
	putCommitted(t, db, "r", []byte("k"), v)
	tx := db.Begin(nil)
	if err := tx.DeleteBlob("r", []byte("hole")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	db.DrainCommits()
	db.ReclaimTick()

	tx = db.Begin(nil)
	before, err := tx.BlobState("r", []byte("k"))
	tx.Commit()
	if err != nil || !before.HasTail() {
		t.Fatalf("state %+v, %v; want a blob ending in a tail", before, err)
	}
	var tgt *RelocTarget
	for _, c := range db.PlanRelocations(16) {
		if c.Tier == TailTarget {
			tgt = &c
		}
	}
	if tgt == nil || tgt.PID != before.Tail.PID {
		t.Fatalf("plan %+v does not name the tail at %d", tgt, before.Tail.PID)
	}
	hwm := db.Allocator().HWM()
	tx = db.Begin(nil)
	if moved, err := tx.RelocateExtent(*tgt); !moved || err != nil {
		t.Fatalf("RelocateExtent = %v, %v", moved, err)
	}
	staged, err := tx.BlobState("r", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	onDev := make([]byte, int(staged.Tail.Pages)*ps)
	if err := o.Dev.ReadPages(nil, staged.Tail.PID, int(staged.Tail.Pages), onDev); err != nil {
		t.Fatal(err)
	}
	if tail := v[db.Allocator().Tiers().Cum(len(staged.Extents)-1)*ps:]; !bytes.Equal(onDev[:len(tail)], tail) {
		t.Error("the relocated tail is not on the device before its remap commits")
	}
	mustCommit(t, tx)
	db.DrainCommits()
	db.ReclaimTick()
	if got := db.Allocator().ShrinkHWM(); got == 0 {
		t.Errorf("high-water mark %d did not retract over the moved tail", hwm)
	}

	tx = db.Begin(nil)
	after, _ := tx.BlobState("r", []byte("k"))
	tx.Commit()
	if after.Tail.PID >= before.Tail.PID || after.Tail.Pages != before.Tail.Pages {
		t.Errorf("tail %+v after the move; was %+v", after.Tail, before.Tail)
	}
	wantContent(t, db, "k", v)
	db2, _ := recoverCopy(t, o)
	wantContent(t, db2, "k", v)
}
