package storage

import (
	"fmt"
	"time"

	"blobdb/internal/simtime"
)

// Seg is one contiguous page range in a vectored I/O request.
type Seg struct {
	PID PID
	N   int    // pages
	Buf []byte // at least N*PageSize bytes
}

// vecCost computes the virtual time of a batch of segments submitted to the
// device queue at once: commands overlap, so the batch pays one command
// latency (the deepest-queued command hides the others) plus the bandwidth
// cost of all bytes.
func vecCost(cm *simtime.DeviceCostModel, segs []Seg, write bool) time.Duration {
	if cm == nil || len(segs) == 0 {
		return 0
	}
	total := 0
	for _, s := range segs {
		total += len(s.Buf)
	}
	if write {
		return cm.WriteCost(total, len(segs) == 1)
	}
	return cm.ReadCost(total, len(segs) == 1)
}

// trimSegs re-slices every segment buffer to its exact byte length into a
// fresh slice — never into the caller's []Seg, whose Buf headers must not
// be silently truncated.
func trimSegs(d Device, segs []Seg) ([]Seg, error) {
	trimmed := make([]Seg, len(segs))
	for i, s := range segs {
		n := s.N * d.PageSize()
		if len(s.Buf) < n {
			return nil, fmt.Errorf("storage: segment %d buffer %d bytes, need %d", i, len(s.Buf), n)
		}
		trimmed[i] = Seg{PID: s.PID, N: s.N, Buf: s.Buf[:n:n]}
	}
	return trimmed, nil
}

// ReadVec reads all segments with one ReadPagesVec submission, each buffer
// trimmed to its segment. This is the §III-D BLOB read path — one
// submission for all extents.
func ReadVec(d Device, m *simtime.Meter, segs []Seg) error {
	trimmed, err := trimSegs(d, segs)
	if err != nil {
		return err
	}
	return d.ReadPagesVec(m, trimmed)
}

// WriteVec writes all segments with one WritePagesVec submission. This is
// the commit-time extent flush of §III-C: the extents' writes submitted
// together after the WAL record is durable.
func WriteVec(d Device, m *simtime.Meter, segs []Seg) error {
	trimmed, err := trimSegs(d, segs)
	if err != nil {
		return err
	}
	return d.WritePagesVec(m, trimmed)
}
