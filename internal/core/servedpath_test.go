package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"blobdb/internal/buffer"
)

// TestMixedLoadServedPath runs concurrent aliased readers against
// overwriting writers on the group-commit engine, once with the
// inline submission queue and once with the queued one, and checks what
// the served read/write path relies on: small blobs alias in the
// worker-local area and large ones reserve the shared area, the queued
// engine submits its device work through the queue, every deferred extent
// free is drained once the commits are, and an aliased read streams pool
// frames without copying the blob.
func TestMixedLoadServedPath(t *testing.T) {
	const (
		blobs        = 16 // even keys small, odd keys large
		small, large = 4 * ps, 32 * ps
	)
	size := func(i int) int {
		if i%2 == 0 {
			return small
		}
		return large
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("b%02d", i)) }

	for _, inline := range []bool{true, false} {
		t.Run(fmt.Sprintf("inline=%v", inline), func(t *testing.T) {
			o := testOpts()
			o.PoolPages = 256 // below the 288-page working set: reads go cold
			o.WorkerLocalAliasPages = 8
			o.InlineQueue = inline
			db := openTest(t, o)
			defer db.CloseCommitter()
			if _, err := db.CreateRelation("r"); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			put := func(i int, fill byte) error {
				tx := db.BeginCtx(ctx, nil)
				w, err := tx.CreateBlob(ctx, "r", key(i))
				if err != nil {
					tx.Abort()
					return err
				}
				if _, err := w.Write(bytes.Repeat([]byte{fill}, size(i))); err != nil {
					w.Abort()
					tx.Abort()
					return err
				}
				if err := w.Close(); err != nil {
					tx.Abort()
					return err
				}
				return tx.Commit()
			}
			read := func(i int) error {
				tx := db.BeginCtx(ctx, nil)
				defer tx.Commit()
				return tx.ReadBlob("r", key(i), func(v *buffer.BlobView) error {
					if v.Len() != size(i) {
						return fmt.Errorf("%s: view of %d bytes, want %d", key(i), v.Len(), size(i))
					}
					_, err := v.WriteTo(io.Discard)
					return err
				})
			}
			for i := 0; i < blobs; i++ {
				if err := put(i, 'a'); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			errs := make(chan error, 6)
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for n := 0; n < 40; n++ {
						if err := read(rng.Intn(blobs)); err != nil {
							errs <- err
							return
						}
					}
				}(r)
			}
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Disjoint keys per writer; each overwrite defers the
					// free of the old extents behind the readers.
					for n := 0; n < 8; n++ {
						if err := put((w+2*n)%blobs, byte('b'+n)); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := db.DrainCommits(); err != nil {
				t.Fatal(err)
			}

			if n := db.ReclaimPending(); n != 0 {
				t.Errorf("%d deferred extent free batches left after the commits drained", n)
			}
			if a := db.AliasManager().Stats(); a.LocalUses == 0 || a.SharedUses == 0 {
				t.Errorf("alias areas not both used: local %d, shared %d", a.LocalUses, a.SharedUses)
			}
			if q := db.Queue().Stats(); !inline && q.Submitted == 0 {
				t.Error("queued engine never used the submission queue")
			}

			// A warm aliased read hands the sink the pool's own frames: the
			// reads below would allocate 16 blobs' worth if they copied.
			const reads = 16
			if err := read(1); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for n := 0; n < reads; n++ {
				if err := read(1); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if delta := after.TotalAlloc - before.TotalAlloc; delta >= large {
				t.Errorf("%d aliased reads of a %d-byte blob allocated %d bytes: the read path copies", reads, large, delta)
			}
		})
	}
}
