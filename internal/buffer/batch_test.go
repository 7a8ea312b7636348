package buffer

import (
	"bytes"
	"sync"
	"testing"

	"blobdb/internal/storage"
)

// TestFixExtentsOneSubmission asserts the §III-D promise: a cold
// multi-extent BLOB read issues exactly one vectored device submission for
// all missing extents.
func TestFixExtentsOneSubmission(t *testing.T) {
	specs := []ExtentSpec{{PID: 10, NPages: 2}, {PID: 12, NPages: 3}, {PID: 30, NPages: 1}}
	for name, mk := range map[string]func(dev storage.Device) Pool{
		"vmcache": func(dev storage.Device) Pool { return NewVMPool(dev, 64) },
		"ht":      func(dev storage.Device) Pool { return NewHTPool(dev, 64) },
	} {
		t.Run(name, func(t *testing.T) {
			dev := newDev(256)
			for _, sp := range specs {
				if err := dev.WritePages(nil, sp.PID, sp.NPages, bytes.Repeat([]byte{byte(sp.PID)}, sp.NPages*ps)); err != nil {
					t.Fatal(err)
				}
			}
			p := mk(dev)
			frames, err := p.FixExtents(nil, specs)
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) != len(specs) {
				t.Fatalf("got %d frames, want %d", len(frames), len(specs))
			}
			for i, f := range frames {
				if f.HeadPID != specs[i].PID || f.NPages != specs[i].NPages {
					t.Errorf("frame %d = extent %d/%d, want %d/%d",
						i, f.HeadPID, f.NPages, specs[i].PID, specs[i].NPages)
				}
				got := make([]byte, f.NPages*ps)
				f.ReadAt(got, 0)
				if !bytes.Equal(got, bytes.Repeat([]byte{byte(f.HeadPID)}, len(got))) {
					t.Errorf("frame %d content mismatch", i)
				}
			}
			if got := dev.Stats().VecReads(); got != 1 {
				t.Errorf("device saw %d vectored submissions, want exactly 1", got)
			}
			if got := p.Stats().Snapshot().FixBatches; got != 1 {
				t.Errorf("FixBatches = %d, want 1", got)
			}
			if got := p.Stats().Snapshot().FixBatchPages; got != 6 {
				t.Errorf("FixBatchPages = %d, want 6", got)
			}
			for _, f := range frames {
				f.Release()
			}
		})
	}
}

// TestVMPoolCoalescesAdjacentExtents checks the coalescing rule: extents
// adjacent on the device AND in the slab merge into one read segment. On a
// fresh pool the first-fit allocator places them contiguously, so the three
// PID-adjacent extents [10,2) [12,3) [15,1) become a single segment.
func TestVMPoolCoalescesAdjacentExtents(t *testing.T) {
	dev := newDev(256)
	p := NewVMPool(dev, 64)
	frames, err := p.FixExtents(nil, []ExtentSpec{
		{PID: 10, NPages: 2}, {PID: 12, NPages: 3}, {PID: 15, NPages: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().VecReadSegs(); got != 1 {
		t.Errorf("adjacent extents read as %d segments, want 1 coalesced", got)
	}
	if got := p.Stats().Snapshot().ReadVecSegments; got != 1 {
		t.Errorf("ReadVecSegments = %d, want 1", got)
	}
	for _, f := range frames {
		f.Release()
	}

	// Non-adjacent extents must stay separate segments but still go down in
	// one submission.
	dev2 := newDev(256)
	p2 := NewVMPool(dev2, 64)
	frames2, err := p2.FixExtents(nil, []ExtentSpec{{PID: 10, NPages: 2}, {PID: 40, NPages: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := dev2.Stats().VecReadSegs(); got != 2 {
		t.Errorf("disjoint extents read as %d segments, want 2", got)
	}
	if got := dev2.Stats().VecReads(); got != 1 {
		t.Errorf("disjoint extents took %d submissions, want 1", got)
	}
	for _, f := range frames2 {
		f.Release()
	}
}

// TestFixExtentsColdSingleflight: two goroutines batch-fix the same cold
// BLOB concurrently; the device must see exactly one read per extent (or
// per page for the page-granular pool) — never a duplicate load.
func TestFixExtentsColdSingleflight(t *testing.T) {
	// PID-disjoint extents so VMPool's coalescing doesn't merge segments
	// and "one read per extent" is exact.
	specs := []ExtentSpec{{PID: 10, NPages: 2}, {PID: 20, NPages: 2}, {PID: 30, NPages: 2}}
	for _, tc := range []struct {
		name     string
		mk       func(dev storage.Device) Pool
		wantOps  int64 // one ReadPages command per extent (vm) / per page (ht)
		wantByte int64
	}{
		{"vmcache", func(dev storage.Device) Pool { return NewVMPool(dev, 64) }, 3, 6 * ps},
		{"ht", func(dev storage.Device) Pool { return NewHTPool(dev, 64) }, 6, 6 * ps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := newDev(256)
			p := tc.mk(dev)
			const workers = 8
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					frames, err := p.FixExtents(nil, specs)
					if err != nil {
						errs[w] = err
						return
					}
					for _, f := range frames {
						f.Release()
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := dev.Stats().ReadOps(); got != tc.wantOps {
				t.Errorf("device ReadOps = %d, want exactly %d (one per %s)",
					got, tc.wantOps, map[string]string{"vmcache": "extent", "ht": "page"}[tc.name])
			}
			if got := dev.Stats().BytesRead(); got != tc.wantByte {
				t.Errorf("device BytesRead = %d, want %d", got, tc.wantByte)
			}
		})
	}
}

// TestFixExtentsPartialFailureUnpins: when a later extent in the batch
// fails, every already-fixed frame must be unpinned and no pin leak left
// behind. Covers both failure points: classification (admit) and the device
// read itself.
func TestFixExtentsPartialFailureUnpins(t *testing.T) {
	for name, mk := range map[string]func(dev storage.Device) Pool{
		"vmcache": func(dev storage.Device) Pool { return NewVMPool(dev, 64) },
		"ht":      func(dev storage.Device) Pool { return NewHTPool(dev, 64) },
	} {
		t.Run(name+"/admit-error", func(t *testing.T) {
			dev := newDev(256)
			p := mk(dev)
			// Make extent 30 resident with 2 pages so fixing it with 4
			// pages errors during classification.
			f, err := p.FixExtent(nil, 30, 2)
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
			_, err = p.FixExtents(nil, []ExtentSpec{
				{PID: 10, NPages: 2}, {PID: 20, NPages: 2}, {PID: 30, NPages: 4},
			})
			if err == nil {
				t.Fatal("FixExtents succeeded, want npages-mismatch error")
			}
			// Every frame fixed before the failure must be unpinned again:
			// Drop panics on a pinned extent.
			p.Drop(10)
			p.Drop(20)
			p.Drop(30)
			if got := p.ResidentPages(); got != 0 {
				t.Errorf("ResidentPages = %d after dropping all, want 0", got)
			}
		})
		t.Run(name+"/read-error", func(t *testing.T) {
			dev := newDev(256) // PIDs >= 256 are out of range
			p := mk(dev)
			_, err := p.FixExtents(nil, []ExtentSpec{
				{PID: 10, NPages: 2}, {PID: 1000, NPages: 2},
			})
			if err == nil {
				t.Fatal("FixExtents succeeded, want device read error")
			}
			// The poisoned entries must be gone and the good extent
			// unpinned (droppable).
			if e := poolResident(p, 1000); e != nil {
				t.Error("failed extent still resident after last unpin")
			}
			p.Drop(10)
			if got := p.ResidentPages(); got != 0 {
				t.Errorf("ResidentPages = %d, want 0", got)
			}
		})
	}
}

// poolResident looks up an entry through either pool's sharded map.
func poolResident(p Pool, pid storage.PID) *entry {
	switch v := p.(type) {
	case *VMPool:
		return v.resident.get(pid)
	}
	return nil
}

// TestFixExtentsDuplicateSpecs: the same extent listed twice must pin
// twice without deadlocking on the singleflight channel.
func TestFixExtentsDuplicateSpecs(t *testing.T) {
	dev := newDev(256)
	for name, p := range pools(dev, 64) {
		t.Run(name, func(t *testing.T) {
			frames, err := p.FixExtents(nil, []ExtentSpec{
				{PID: 50, NPages: 2}, {PID: 50, NPages: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) != 2 {
				t.Fatalf("got %d frames, want 2", len(frames))
			}
			frames[0].Release()
			frames[1].Release()
			p.Drop(50) // both pins gone
		})
	}
}

// TestFixExtentsEmptyAndWarm covers the trivial paths: an empty spec list
// and an all-hit batch (no device traffic at all).
func TestFixExtentsEmptyAndWarm(t *testing.T) {
	dev := newDev(256)
	for name, p := range pools(dev, 64) {
		t.Run(name, func(t *testing.T) {
			frames, err := p.FixExtents(nil, nil)
			if err != nil || len(frames) != 0 {
				t.Fatalf("empty FixExtents = (%v, %v)", frames, err)
			}
			specs := []ExtentSpec{{PID: 60, NPages: 2}, {PID: 70, NPages: 1}}
			warm, err := p.FixExtents(nil, specs)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range warm {
				f.Release()
			}
			before := dev.Stats().ReadOps()
			again, err := p.FixExtents(nil, specs)
			if err != nil {
				t.Fatal(err)
			}
			if got := dev.Stats().ReadOps(); got != before {
				t.Errorf("warm batch read the device (%d -> %d ops)", before, got)
			}
			if got := p.Stats().Snapshot().Hits; got < 2 {
				t.Errorf("Hits = %d, want >= 2", got)
			}
			for _, f := range again {
				f.Release()
			}
		})
	}
}
