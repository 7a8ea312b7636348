package buffer

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blobdb/internal/storage"
)

// pagePattern is the content the prefix tests store in page pid: every
// byte is the PID's low byte plus one, so a frame showing a page from the
// wrong place — or an unloaded page — is caught.
func pagePattern(pid storage.PID) []byte {
	return bytes.Repeat([]byte{byte(pid) + 1}, ps)
}

func writePatterns(t *testing.T, dev storage.Device, from, n int) {
	t.Helper()
	for pid := storage.PID(from); pid < storage.PID(from+n); pid++ {
		if err := dev.WritePages(nil, pid, 1, pagePattern(pid)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkPages reports the first of the frame's first n pages whose bytes
// are not the pattern.
func checkPages(f *Frame, n int) error {
	if f.NPages < n {
		return fmt.Errorf("frame of extent %d holds %d pages, want >= %d", f.HeadPID, f.NPages, n)
	}
	got := make([]byte, ps)
	for i := 0; i < n; i++ {
		pid := f.HeadPID + storage.PID(i)
		if f.ReadAt(got, i*ps); !bytes.Equal(got, pagePattern(pid)) {
			return fmt.Errorf("extent %d page %d holds the wrong bytes", f.HeadPID, i)
		}
	}
	return nil
}

func fixPrefix(p Pool, pid storage.PID, npages, used int) (*Frame, error) {
	fs, err := p.FixExtents(nil, []ExtentSpec{{PID: pid, NPages: npages, Used: used}})
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// TestPrefixFixUpgradeWhilePinned walks a prefix entry through its life:
// a cold prefix fix loads only its pages; a smaller fix is a hit; a fix
// of the wrong extent size is still refused; a full fix waits while a
// reader pins the prefix, then drops it and loads the whole extent, and
// both the reader and the full fixer see the right bytes.
func TestPrefixFixUpgradeWhilePinned(t *testing.T) {
	dev := newDev(64)
	writePatterns(t, dev, 16, 8)
	for name, p := range pools(dev, 32) {
		t.Run(name, func(t *testing.T) {
			dev.Stats().Reset()
			reader, err := fixPrefix(p, 16, 8, 3)
			if err != nil {
				t.Fatal(err)
			}
			if reader.NPages != 3 || p.ResidentPages() != 3 || dev.Stats().BytesRead() != 3*ps {
				t.Fatalf("prefix fix: frame %d pages, %d resident, %d bytes read; want 3, 3, %d",
					reader.NPages, p.ResidentPages(), dev.Stats().BytesRead(), 3*ps)
			}
			if err := checkPages(reader, 3); err != nil {
				t.Fatal(err)
			}
			small, err := fixPrefix(p, 16, 8, 2)
			if err != nil {
				t.Fatal(err)
			}
			if small.entry != reader.entry {
				t.Error("a smaller prefix fix did not hit the resident prefix")
			}
			small.Release()
			if f, err := p.FixExtent(nil, 16, 4); err == nil {
				f.Release()
				t.Fatal("fix with the wrong extent size was accepted")
			}

			done := make(chan *Frame, 1)
			go func() {
				f, err := p.FixExtent(nil, 16, 8)
				if err != nil {
					t.Error(err)
				}
				done <- f
			}()
			select {
			case <-done:
				t.Fatal("full fix returned while a reader pinned the prefix")
			case <-time.After(20 * time.Millisecond):
			}
			if err := checkPages(reader, 3); err != nil {
				t.Fatal(err)
			}
			reader.Release()
			full := <-done
			if full == nil {
				t.FailNow()
			}
			if full.NPages != 8 || p.ResidentPages() != 8 {
				t.Fatalf("upgraded frame holds %d pages, %d resident; want 8 and 8", full.NPages, p.ResidentPages())
			}
			if err := checkPages(full, 8); err != nil {
				t.Fatal(err)
			}
			if n := p.Stats().Upgrades.Load(); n != 1 {
				t.Errorf("Upgrades = %d, want 1", n)
			}
			full.Release()

			// The full entry now serves prefix fixes as hits, and nothing
			// more is read.
			read := dev.Stats().BytesRead()
			again, err := fixPrefix(p, 16, 8, 3)
			if err != nil {
				t.Fatal(err)
			}
			if again.NPages != 8 || dev.Stats().BytesRead() != read {
				t.Errorf("prefix fix after the upgrade: %d pages, %d bytes read; want a hit on the full entry",
					again.NPages, dev.Stats().BytesRead()-read)
			}
			again.Release()
			p.Drop(16)
		})
	}
}

// TestPrefixFixNeverDirty: a prefix entry refuses writes, so an upgrade
// can always drop it without write-back.
func TestPrefixFixNeverDirty(t *testing.T) {
	dev := newDev(64)
	for name, p := range pools(dev, 32) {
		t.Run(name, func(t *testing.T) {
			f, err := fixPrefix(p, 8, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Release()
			defer func() {
				if recover() == nil {
					t.Error("write into a prefix entry did not panic")
				}
			}()
			f.WriteAt([]byte{1}, 0)
		})
	}
}

// TestPrefixFixBadUsed: a prefix longer than the extent, or negative, is
// refused and leaves nothing pinned.
func TestPrefixFixBadUsed(t *testing.T) {
	dev := newDev(64)
	for name, p := range pools(dev, 32) {
		t.Run(name, func(t *testing.T) {
			for _, used := range []int{-1, 5} {
				if _, err := p.FixExtents(nil, []ExtentSpec{{PID: 0, NPages: 2}, {PID: 8, NPages: 4, Used: used}}); err == nil {
					t.Errorf("Used=%d of a 4-page extent was accepted", used)
				}
			}
			if err := p.EvictAll(nil); err != nil {
				t.Fatal(err)
			}
			if n := p.ResidentPages(); n != 0 {
				t.Errorf("%d pages still resident after the refused fixes: a pin leaked", n)
			}
		})
	}
}

// TestPrefixFixConcurrentUpgrades races prefix readers against full
// fixers that dirty and flush the extent, in a pool too small for the
// working set, so prefix admission, upgrades, hits on full entries and
// eviction write-back interleave. Every fix must see the stored pattern.
func TestPrefixFixConcurrentUpgrades(t *testing.T) {
	const (
		extents = 8
		npages  = 8
		workers = 4
		iters   = 300
	)
	dev := newDev(extents * npages)
	writePatterns(t, dev, 0, extents*npages)
	for name, p := range pools(dev, workers*npages+8) {
		t.Run(name, func(t *testing.T) {
			// One writer per extent at a time, as the transaction layer's
			// key locks guarantee; readers take no lock.
			var writeLocks [extents]sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < iters; i++ {
						pid := storage.PID(rng.Intn(extents) * npages)
						if rng.Intn(4) == 0 {
							mu := &writeLocks[pid/npages]
							mu.Lock()
							f, err := p.FixExtent(nil, pid, npages)
							if err != nil {
								mu.Unlock()
								t.Error(err)
								return
							}
							err = checkPages(f, npages)
							// Dirty without changing bytes other fixers may be
							// reading: eviction then writes the page back.
							f.MarkDirty(1, 2)
							if ferr := p.FlushExtent(nil, f); err == nil {
								err = ferr
							}
							f.Release()
							mu.Unlock()
							if err != nil {
								t.Error(err)
								return
							}
							continue
						}
						used := 1 + rng.Intn(npages)
						f, err := fixPrefix(p, pid, npages, used)
						if err != nil {
							t.Error(err)
							return
						}
						err = checkPages(f, used)
						f.Release()
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			s := p.Stats().Snapshot()
			if s.Upgrades == 0 || s.Evictions == 0 {
				t.Errorf("upgrades=%d evictions=%d: the schedule never upgraded or evicted", s.Upgrades, s.Evictions)
			}
		})
	}
}

// TestPrefixFixBatchLoadsBeforeWaiting: a batch that must upgrade a pinned
// prefix first loads the misses it has already claimed. A reader may pin
// that prefix while awaiting one of those loads; were the loads held back
// until the upgrade, batch and reader would wait for each other forever.
func TestPrefixFixBatchLoadsBeforeWaiting(t *testing.T) {
	dev := newDev(64)
	writePatterns(t, dev, 0, 24)
	for name, p := range pools(dev, 32) {
		t.Run(name, func(t *testing.T) {
			holder, err := fixPrefix(p, 16, 8, 2) // X, resident as a pinned prefix
			if err != nil {
				t.Fatal(err)
			}
			batch := make(chan error, 1)
			go func() { // claims A (0..3) as a miss, then must upgrade X
				fs, err := p.FixExtents(nil, []ExtentSpec{{PID: 0, NPages: 4}, {PID: 16, NPages: 8}})
				if err == nil {
					err = checkPages(fs[0], 4)
					if cerr := checkPages(fs[1], 8); err == nil {
						err = cerr
					}
					for _, f := range fs {
						f.Release()
					}
				}
				batch <- err
			}()
			waitFor(t, "the batch to claim A", func() bool { return p.ResidentPages() == 2+4 })
			hits := p.Stats().Hits.Load()
			reader := make(chan error, 1)
			go func() { // pins X's prefix, then awaits A
				fs, err := p.FixExtents(nil, []ExtentSpec{{PID: 0, NPages: 4}, {PID: 16, NPages: 8, Used: 2}})
				if err == nil {
					err = checkPages(fs[0], 4)
					for _, f := range fs {
						f.Release()
					}
				}
				reader <- err
			}()
			waitFor(t, "the reader to pin A and X", func() bool { return p.Stats().Hits.Load() == hits+2 })
			holder.Release()
			for _, ch := range []chan error{reader, batch} {
				select {
				case err := <-ch:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("batch upgrade and prefix reader deadlocked")
				}
			}
		})
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
