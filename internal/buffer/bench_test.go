package buffer

import (
	"testing"

	"blobdb/internal/storage"
)

// benchLayouts builds each frame layout over a fresh device.
var benchLayouts = []struct {
	name string
	mk   func(storage.Device, int) Pool
}{
	{"vmcache", func(d storage.Device, n int) Pool { return NewVMPool(d, n) }},
	{"ht", func(d storage.Device, n int) Pool { return NewHTPool(d, n) }},
}

// benchSpecs is a 4-extent BLOB of 1+2+4+8 pages laid out back to back,
// the tier shape of a ~60 KiB blob.
func benchSpecs(head storage.PID) []ExtentSpec {
	return []ExtentSpec{
		{PID: head, NPages: 1}, {PID: head + 1, NPages: 2},
		{PID: head + 3, NPages: 4}, {PID: head + 7, NPages: 8},
	}
}

func releaseFrames(fs []*Frame) {
	for _, f := range fs {
		f.Release()
	}
}

// BenchmarkFixExtentsHit measures a pool-hit BLOB read: every extent is
// resident, so the batch pins and builds frames without device traffic.
func BenchmarkFixExtentsHit(b *testing.B) {
	for _, l := range benchLayouts {
		b.Run(l.name, func(b *testing.B) {
			p := l.mk(newDev(256), 64)
			specs := benchSpecs(16)
			fs, err := p.FixExtents(nil, specs)
			if err != nil {
				b.Fatal(err)
			}
			releaseFrames(fs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs, err := p.FixExtents(nil, specs)
				if err != nil {
					b.Fatal(err)
				}
				releaseFrames(fs)
			}
		})
	}
}

// BenchmarkFixExtentsMiss measures a cold BLOB read under eviction
// pressure: each batch reads 15 pages that are not resident, in a 64-page
// pool cycling over 256 BLOBs, so every fix also evicts clean victims.
func BenchmarkFixExtentsMiss(b *testing.B) {
	for _, l := range benchLayouts {
		b.Run(l.name, func(b *testing.B) {
			const blobs = 256
			p := l.mk(newDev(blobs*16), 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs, err := p.FixExtents(nil, benchSpecs(storage.PID(i%blobs)*16))
				if err != nil {
					b.Fatal(err)
				}
				releaseFrames(fs)
			}
		})
	}
}

// BenchmarkFixExtentHit measures the single-extent hit path.
func BenchmarkFixExtentHit(b *testing.B) {
	for _, l := range benchLayouts {
		b.Run(l.name, func(b *testing.B) {
			p := l.mk(newDev(256), 64)
			f, err := p.FixExtent(nil, 16, 8)
			if err != nil {
				b.Fatal(err)
			}
			f.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := p.FixExtent(nil, 16, 8)
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		})
	}
}
