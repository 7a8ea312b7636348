// Package storage is a fixture stub of the engine's device layer: the
// analyzers recognize I/O calls by package name, method name, and shape.
package storage

type PID uint64

type Seg struct {
	PID PID
	N   int
	Buf []byte
}

type Device interface {
	ReadPages(pid PID, n int, buf []byte) error
	WritePages(pid PID, n int, buf []byte) error
	ReadPagesVec(segs []Seg) error
	WritePagesVec(segs []Seg) error
	Sync() error
}

func ReadVec(d Device, segs []Seg) error  { return d.ReadPagesVec(segs) }
func WriteVec(d Device, segs []Seg) error { return d.WritePagesVec(segs) }
