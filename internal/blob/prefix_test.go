package blob

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
	"time"
)

// coldBlob writes a committed blob of size random bytes and evicts the
// whole pool, so the next read comes off the device.
func coldBlob(t *testing.T, e *env, seed int64, size int) (*State, []byte) {
	t.Helper()
	data := randBytes(rand.New(rand.NewSource(seed)), size)
	st, pending, _, err := writerAlloc(e.mgr, data)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, pending)
	if err := e.pool.EvictAll(nil); err != nil {
		t.Fatal(err)
	}
	e.dev.Stats().Reset()
	return st, data
}

// TestPrefixFixColdRead256KiB: a 256 KiB blob spans tiers of
// 1+2+…+32+64 = 127 pages, but a cold read loads only the 64 pages its
// content covers, in one vectored submission, and holds only those in the
// pool.
func TestPrefixFixColdRead256KiB(t *testing.T) {
	for _, ht := range []bool{false, true} {
		name := map[bool]string{false: "vmcache", true: "ht"}[ht]
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 1<<14, 1<<12, ht)
			st, data := coldBlob(t, e, 21, 256<<10)
			if tp := st.TotalPages(e.alloc.Tiers()); tp != 127 {
				t.Fatalf("256 KiB blob occupies %d pages, want 127", tp)
			}
			got, err := e.mgr.ReadAll(nil, st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("content mismatch on cold read")
			}
			if r, v := e.dev.Stats().BytesRead(), e.dev.Stats().VecReads(); r != 64*ps || v != 1 {
				t.Errorf("cold read moved %d pages in %d submissions, want 64 in 1", r/ps, v)
			}
			if n := e.pool.ResidentPages(); n != 64 {
				t.Errorf("%d pages resident after the read, want 64", n)
			}
		})
	}
}

// TestPrefixFixStreamUsedPagesOnly: Stream (recovery's validateBlob and the
// comparator read through it) also loads only the pages the content covers.
func TestPrefixFixStreamUsedPagesOnly(t *testing.T) {
	for _, ht := range []bool{false, true} {
		name := map[bool]string{false: "vmcache", true: "ht"}[ht]
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 1<<14, 1<<12, ht)
			for _, size := range []int{1, 5000, 256 << 10, 300<<10 + 17} {
				st, data := coldBlob(t, e, int64(size), size)
				h := sha256.New()
				if err := e.mgr.Stream(nil, st, func(chunk []byte) bool {
					h.Write(chunk)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if [32]byte(h.Sum(nil)) != sha256.Sum256(data) {
					t.Fatalf("size %d: streamed content mismatch", size)
				}
				want := int64((size + ps - 1) / ps)
				if r := e.dev.Stats().BytesRead(); r != want*ps {
					t.Errorf("size %d: stream read %d pages, want %d", size, r/ps, want)
				}
			}
		})
	}
}

// TestPrefixFixAppendUpgradesPinnedPrefix: an append to a blob whose last
// extent is resident as a prefix, pinned by an open read, waits for the
// read to end, then upgrades the extent; the reader sees its snapshot and
// the appended blob reads back whole.
func TestPrefixFixAppendUpgradesPinnedPrefix(t *testing.T) {
	for _, ht := range []bool{false, true} {
		name := map[bool]string{false: "vmcache", true: "ht"}[ht]
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 1<<14, 1<<12, ht)
			st, data := coldBlob(t, e, 31, 256<<10)
			h, err := e.mgr.Read(nil, st)
			if err != nil {
				t.Fatal(err)
			}

			extra := randBytes(rand.New(rand.NewSource(32)), 100<<10)
			type grown struct {
				st  *State
				p   *Pending
				err error
			}
			done := make(chan grown, 1)
			go func() {
				nst, p, _, err := writerGrow(e.mgr, st, extra)
				done <- grown{nst, p, err}
			}()
			select {
			case <-done:
				t.Fatal("append fixed the last extent while a reader pinned its prefix")
			case <-time.After(20 * time.Millisecond):
			}
			got := make([]byte, len(data))
			h.View().CopyTo(got, 0)
			h.Close(nil)
			if !bytes.Equal(got, data) {
				t.Fatal("reader saw the wrong bytes")
			}

			g := <-done
			if g.err != nil {
				t.Fatal(g.err)
			}
			commit(t, g.p)
			if n := e.pool.Stats().Upgrades.Load(); n != 1 {
				t.Errorf("Upgrades = %d, want 1", n)
			}
			all, err := e.mgr.ReadAll(nil, g.st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(all, append(data, extra...)) {
				t.Fatal("appended blob reads back wrong")
			}
		})
	}
}
