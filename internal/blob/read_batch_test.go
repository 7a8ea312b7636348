package blob

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// coldReadPages is the number of pages a cold read of st loads: the pages
// its content covers. The unused tail of the last extent stays on the
// device.
func coldReadPages(st *State) int64 {
	return int64((st.Size + ps - 1) / ps)
}

// TestColdReadOneSubmission: reading a cold multi-extent BLOB through the
// manager must reach the device as exactly one vectored submission (§III-D).
func TestColdReadOneSubmission(t *testing.T) {
	for _, ht := range []bool{false, true} {
		name := map[bool]string{false: "vmcache", true: "ht"}[ht]
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 1<<14, 1<<12, ht)
			data := randBytes(rand.New(rand.NewSource(11)), 200<<10) // several tiers
			st, pending, _, err := writerAlloc(e.mgr, data)
			if err != nil {
				t.Fatal(err)
			}
			commit(t, pending)
			if err := e.pool.EvictAll(nil); err != nil {
				t.Fatal(err)
			}
			if len(st.Extents) < 2 {
				t.Fatalf("blob has %d extents, want a multi-extent layout", len(st.Extents))
			}
			e.dev.Stats().Reset()
			got, err := e.mgr.ReadAll(nil, st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("content mismatch on cold batched read")
			}
			if subs := e.dev.Stats().VecReads(); subs != 1 {
				t.Errorf("cold read of %d extents took %d vectored submissions, want exactly 1",
					len(st.Extents), subs)
			}
			pages := coldReadPages(st)
			if r := e.dev.Stats().BytesRead(); r != pages*ps {
				t.Errorf("cold read transferred %d bytes, want %d (each used page once)", r, pages*ps)
			}
		})
	}
}

// TestConcurrentColdReadsSingleLoad: many goroutines read the same cold
// BLOB; the per-extent singleflight must keep the device traffic at one
// load per extent in total.
func TestConcurrentColdReadsSingleLoad(t *testing.T) {
	for _, ht := range []bool{false, true} {
		name := map[bool]string{false: "vmcache", true: "ht"}[ht]
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 1<<14, 1<<12, ht)
			data := randBytes(rand.New(rand.NewSource(12)), 120<<10)
			st, pending, _, err := writerAlloc(e.mgr, data)
			if err != nil {
				t.Fatal(err)
			}
			commit(t, pending)
			if err := e.pool.EvictAll(nil); err != nil {
				t.Fatal(err)
			}
			e.dev.Stats().Reset()
			const readers = 8
			var wg sync.WaitGroup
			errs := make([]error, readers)
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got, err := e.mgr.ReadAll(nil, st)
					if err != nil {
						errs[i] = err
						return
					}
					if !bytes.Equal(got, data) {
						t.Error("content mismatch under concurrent cold read")
					}
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			pages := coldReadPages(st)
			if r := e.dev.Stats().BytesRead(); r != pages*ps {
				t.Errorf("%d concurrent cold readers transferred %d bytes, want %d (each used page loaded once)",
					readers, r, pages*ps)
			}
		})
	}
}
