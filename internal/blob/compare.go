package blob

import (
	"bytes"
	"errors"
	"fmt"

	"blobdb/internal/sha256x"

	"blobdb/internal/buffer"
	"blobdb/internal/simtime"
)

// EqualByHash implements the §III-F point-query equality check: two BLOBs
// are considered equal iff their sizes and SHA-256 digests match. The paper
// (footnote 3) argues the collision risk is acceptable in practice.
func EqualByHash(a, b *State) bool {
	return a.Size == b.Size && a.SHA256 == b.SHA256
}

// contentStream yields a BLOB's content incrementally, fixing one extent at
// a time — the "compare all the extents of the two BLOBs incrementally"
// step of the §III-F comparator. At most one extent is pinned at once.
type contentStream struct {
	m         *Manager
	mt        *simtime.Meter
	st        *State
	idx       int // next extent index; len(Extents) means tail
	frame     *buffer.Frame
	spans     [][]byte
	spanIdx   int
	remaining uint64 // content bytes not yet yielded
}

func (m *Manager) newStream(mt *simtime.Meter, st *State) *contentStream {
	return &contentStream{m: m, mt: mt, st: st, remaining: st.Size}
}

// next returns the next non-empty content chunk, or nil at EOF.
func (s *contentStream) next() ([]byte, error) {
	for {
		if s.remaining == 0 {
			s.close()
			return nil, nil
		}
		if s.frame == nil {
			var sp buffer.ExtentSpec
			switch {
			case s.idx < len(s.st.Extents):
				sp = buffer.ExtentSpec{PID: s.st.Extents[s.idx], NPages: int(s.m.Alloc.Tiers().Size(s.idx))}
			case s.st.HasTail() && s.idx == len(s.st.Extents):
				sp = buffer.ExtentSpec{PID: s.st.Tail.PID, NPages: int(s.st.Tail.Pages)}
			default:
				return nil, fmt.Errorf("blob: stream ran out of extents with %d bytes left", s.remaining)
			}
			// Fix only the pages the remaining content covers.
			sp.Used = usedPages(s.m.contentPages(s.remaining), uint64(sp.NPages))
			frames, err := s.m.Pool.FixExtents(s.mt, []buffer.ExtentSpec{sp})
			if err != nil {
				return nil, err
			}
			s.frame = frames[0]
			s.spans = s.frame.Spans()
			s.spanIdx = 0
		}
		if s.spanIdx >= len(s.spans) {
			s.frame.Release()
			s.frame = nil
			s.idx++
			continue
		}
		chunk := s.spans[s.spanIdx]
		s.spanIdx++
		if uint64(len(chunk)) > s.remaining {
			chunk = chunk[:s.remaining]
		}
		s.remaining -= uint64(len(chunk))
		if len(chunk) > 0 {
			return chunk, nil
		}
	}
}

func (s *contentStream) close() {
	if s.frame != nil {
		s.frame.Release()
		s.frame = nil
	}
}

// Stream invokes visit with consecutive content chunks until EOF or visit
// returns false. At most one extent is resident per stream at a time.
func (m *Manager) Stream(mt *simtime.Meter, st *State, visit func(chunk []byte) bool) error {
	s := m.newStream(mt, st)
	defer s.close()
	for {
		chunk, err := s.next()
		if err != nil {
			return err
		}
		if chunk == nil {
			return nil
		}
		if !visit(chunk) {
			return nil
		}
	}
}

// Compare is the incremental Blob State comparator (§III-F):
//
//  1. SHA-256 equality (free: both digests are embedded).
//  2. Embedded 32-byte prefix comparison (usually decides range queries
//     without touching extents).
//  3. Extent-by-extent content comparison, loading one extent at a time.
//  4. If one BLOB is a prefix of the other, order by size.
//
// It never materializes either BLOB.
func (m *Manager) Compare(mt *simtime.Meter, a, b *State) (int, error) {
	if EqualByHash(a, b) {
		return 0, nil
	}
	pa, pb := a.PrefixBytes(), b.PrefixBytes()
	minP := len(pa)
	if len(pb) < minP {
		minP = len(pb)
	}
	if c := bytes.Compare(pa[:minP], pb[:minP]); c != 0 {
		return c, nil
	}
	// One prefix exhausted: if either BLOB fits entirely in its prefix, the
	// shared bytes decide together with the sizes.
	if a.Size <= PrefixLen || b.Size <= PrefixLen {
		return cmpUint64(a.Size, b.Size), nil
	}
	if c := bytes.Compare(pa, pb); c != 0 {
		return c, nil
	}

	// Equal prefixes: incremental full-content comparison.
	sa, sb := m.newStream(mt, a), m.newStream(mt, b)
	defer sa.close()
	defer sb.close()
	var ca, cb []byte
	for {
		var err error
		if len(ca) == 0 {
			if ca, err = sa.next(); err != nil {
				return 0, err
			}
		}
		if len(cb) == 0 {
			if cb, err = sb.next(); err != nil {
				return 0, err
			}
		}
		if ca == nil || cb == nil {
			// At least one stream is exhausted; order by size.
			return cmpUint64(a.Size, b.Size), nil
		}
		n := len(ca)
		if len(cb) < n {
			n = len(cb)
		}
		if c := bytes.Compare(ca[:n], cb[:n]); c != 0 {
			return c, nil
		}
		ca, cb = ca[n:], cb[n:]
	}
}

func cmpUint64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// hashContent recomputes the full SHA-256 and resumable state of the
// BLOB's current content (used after in-place updates). All extents are
// batch-fixed so cold content arrives in one vectored read (§III-D); a BLOB
// larger than the pool falls back to the one-extent-at-a-time stream.
func (m *Manager) hashContent(mt *simtime.Meter, st *State) ([32]byte, error) {
	h := newHasher()
	frames, err := m.Pool.FixExtents(mt, m.fixSpecs(st))
	switch {
	case err == nil:
		remaining := st.Size
		for _, f := range frames {
			for _, span := range f.Spans() {
				if uint64(len(span)) > remaining {
					span = span[:remaining]
				}
				h.Write(span)
				remaining -= uint64(len(span))
			}
		}
		for _, f := range frames {
			f.Release()
		}
		if remaining != 0 {
			return [32]byte{}, fmt.Errorf("blob: hash ran out of extents with %d bytes left", remaining)
		}
	case errors.Is(err, buffer.ErrPoolFull):
		if err := m.Stream(mt, st, func(chunk []byte) bool {
			h.Write(chunk)
			return true
		}); err != nil {
			return [32]byte{}, err
		}
	default:
		return [32]byte{}, err
	}
	st.SHA256 = h.Sum256()
	st.Intermediate = sha256x.StateOf(h)
	return st.SHA256, nil
}
