package core

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkCommit times one 64 KiB streaming CreateBlob + Commit per
// iteration on a MemDevice: the commit and WAL layer (WAL append, group
// sync, extent flush, deferred frees) with a zero-latency device. Keys
// cycle over a fixed set so overwrites free the old extents and the
// device never fills.
func BenchmarkCommit(b *testing.B) {
	const (
		size = 64 << 10
		keys = 256
	)
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i * 7)
	}
	put := func(db *DB, n int64) error {
		tx := db.Begin(nil)
		w, err := tx.CreateBlob(nil, "r", []byte(fmt.Sprintf("k%03d", n%keys)))
		if err != nil {
			tx.Abort()
			return err
		}
		if _, err := w.Write(content); err != nil {
			tx.Abort()
			return err
		}
		if err := w.Close(); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	b.Run("serial", func(b *testing.B) {
		db := openTest(b, testOpts())
		db.CreateRelation("r")
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := put(db, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		db := openTest(b, testOpts())
		db.CreateRelation("r")
		var next atomic.Int64
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := put(db, next.Add(1)); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
