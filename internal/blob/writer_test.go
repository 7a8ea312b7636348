package blob

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"blobdb/internal/extent"
)

// newWriterEnv builds an env sized for multi-extent blobs.
func newWriterEnv(t testing.TB, useTail bool) *env {
	e := newEnv(t, 1<<16 /* 256MB device */, 1<<15 /* 128MB pool */, false)
	e.mgr.UseTail = useTail
	return e
}

// sealWriter drives a writer through the Manager-level commit protocol the
// transaction layer implements: Close, then flush + release the pending.
func sealWriter(t *testing.T, w *Writer) *State {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, pend, _ := w.Sealed()
	commit(t, pend)
	return st
}

// statesEqual compares everything the paper's Blob State carries. When
// wantPIDs is false the extent layout is compared by shape (count and tail
// pages) but not by physical position — the streaming writer's deferred
// tail conversion allocates in a different order than the one-shot plan,
// so PIDs legitimately differ even though the layout is identical.
func statesEqual(t *testing.T, got, want *State, wantPIDs bool) {
	t.Helper()
	if got.Size != want.Size {
		t.Errorf("size: got %d want %d", got.Size, want.Size)
	}
	if got.SHA256 != want.SHA256 {
		t.Errorf("sha256 mismatch")
	}
	if got.Prefix != want.Prefix {
		t.Errorf("prefix mismatch: got %x want %x", got.Prefix, want.Prefix)
	}
	if got.Intermediate != want.Intermediate {
		t.Errorf("resumable hash intermediate mismatch")
	}
	if len(got.Extents) != len(want.Extents) {
		t.Fatalf("extent count: got %d want %d", len(got.Extents), len(want.Extents))
	}
	if got.Tail.Pages != want.Tail.Pages {
		t.Errorf("tail pages: got %d want %d", got.Tail.Pages, want.Tail.Pages)
	}
	if wantPIDs {
		for i := range want.Extents {
			if got.Extents[i] != want.Extents[i] {
				t.Errorf("extent %d: got PID %d want %d", i, got.Extents[i], want.Extents[i])
			}
		}
		if got.Tail.PID != want.Tail.PID {
			t.Errorf("tail PID: got %d want %d", got.Tail.PID, want.Tail.PID)
		}
	}
}

// TestWriterOneShotEquivalence is the api_redesign acceptance test: a blob
// streamed through the Writer seals to a State byte-identical to the
// deprecated one-shot Allocate — same size, SHA-256, prefix, resumable
// intermediate, and extent layout — across extent boundaries, both write
// entry points, both pipeline modes, and with tail extents on and off.
func TestWriterOneShotEquivalence(t *testing.T) {
	sizes := []int{
		0, 1, 31, 32, 100,
		ps - 1, ps, ps + 1,
		3*ps + 7,
		1023 * ps,     // exactly the level-0 tiers
		1023*ps + 1,   // one byte into the next tier
		2047 * ps,     // exactly through tier 10
		100<<10 + 37,  // ~100KB
		1<<20 + 12345, // ~1MB
	}
	rng := rand.New(rand.NewSource(7))
	for _, useTail := range []bool{false, true} {
		for _, stream := range []bool{false, true} {
			for _, readFrom := range []bool{false, true} {
				for _, size := range sizes {
					name := fmt.Sprintf("tail=%v/stream=%v/readfrom=%v/size=%d", useTail, stream, readFrom, size)
					t.Run(name, func(t *testing.T) {
						data := randBytes(rng, size)

						ref := newWriterEnv(t, useTail)
						want, pend, _, err := writerAlloc(ref.mgr, data)
						if err != nil {
							t.Fatal(err)
						}
						commit(t, pend)

						e := newWriterEnv(t, useTail)
						w, err := e.mgr.NewWriter(WriterOpts{Stream: stream})
						if err != nil {
							t.Fatal(err)
						}
						if readFrom {
							if n, err := w.ReadFrom(bytes.NewReader(data)); err != nil || n != int64(size) {
								t.Fatalf("ReadFrom: n=%d err=%v", n, err)
							}
						} else {
							// Irregular chunk sizes cross extent boundaries
							// mid-chunk.
							for off := 0; off < len(data); {
								n := 1 + rng.Intn(48<<10)
								if off+n > len(data) {
									n = len(data) - off
								}
								if _, err := w.Write(data[off : off+n]); err != nil {
									t.Fatalf("Write at %d: %v", off, err)
								}
								off += n
							}
						}
						got := sealWriter(t, w)

						// With tails the writer transiently allocates the
						// last tier extent before converting it, shifting
						// later PIDs; layout shape must still match Plan.
						statesEqual(t, got, want, !useTail)

						back, err := e.mgr.ReadAll(nil, got)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(back, data) {
							t.Errorf("content mismatch after streamed write")
						}
						if sha256.Sum256(back) != got.SHA256 {
							t.Errorf("stored content does not match sealed SHA-256")
						}
					})
				}
			}
		}
	}
}

// TestWriterAppendEquivalence checks the streaming append path (§III-D)
// against the deprecated one-shot Grow: same resumed hash, same layout,
// same content — including the tail-clone step when the base has a tail.
func TestWriterAppendEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ base, extra int }{
		{0, 100},
		{100, 0}, // no-op append must leave the state (and tail) untouched
		{ps / 2, ps * 2},
		{1023 * ps, 64 << 10}, // base ends exactly on a tier boundary
		{100 << 10, 300 << 10},
	}
	for _, useTail := range []bool{false, true} {
		for _, tc := range cases {
			name := fmt.Sprintf("tail=%v/base=%d/extra=%d", useTail, tc.base, tc.extra)
			t.Run(name, func(t *testing.T) {
				baseData := randBytes(rng, tc.base)
				extra := randBytes(rng, tc.extra)

				ref := newWriterEnv(t, useTail)
				refBase, pend, _, err := writerAlloc(ref.mgr, baseData)
				if err != nil {
					t.Fatal(err)
				}
				commit(t, pend)
				want, gpend, _, err := writerGrow(ref.mgr, refBase, extra)
				if err != nil {
					t.Fatal(err)
				}
				commit(t, gpend)

				e := newWriterEnv(t, useTail)
				base, pend2, _, err := writerAlloc(e.mgr, baseData)
				if err != nil {
					t.Fatal(err)
				}
				commit(t, pend2)
				w, err := e.mgr.NewWriter(WriterOpts{Stream: true, Base: base})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write(extra); err != nil {
					t.Fatal(err)
				}
				got := sealWriter(t, w)

				statesEqual(t, got, want, true)
				back, err := e.mgr.ReadAll(nil, got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, append(append([]byte{}, baseData...), extra...)) {
					t.Errorf("content mismatch after streamed append")
				}
			})
		}
	}
}

// patternReader yields a deterministic byte stream without materializing
// it, in deliberately awkward read sizes.
type patternReader struct {
	n, limit int64
	h        func(i int64) byte
}

func (r *patternReader) Read(p []byte) (int, error) {
	if r.n >= r.limit {
		return 0, io.EOF
	}
	if len(p) > 37<<10 {
		p = p[:37<<10] // force many small reads
	}
	n := int64(len(p))
	if n > r.limit-r.n {
		n = r.limit - r.n
	}
	for i := int64(0); i < n; i++ {
		p[i] = r.h(r.n + i)
	}
	r.n += n
	return int(n), nil
}

// TestWriterStreaming64MiBBoundedMemory is the tentpole acceptance test:
// streaming a 64 MiB blob must never pin more than two extents of frames
// at once — peak buffered bytes stay under 2x the largest tier extent the
// blob uses, not O(blob). (With T=10 tiers the largest extent of a 16384-
// page blob is itself large; the bound is about the pipeline never
// accumulating extents, which the one-shot path fundamentally does.)
func TestWriterStreaming64MiBBoundedMemory(t *testing.T) {
	const size = 64 << 20
	e := newWriterEnv(t, false)
	w, err := e.mgr.NewWriter(WriterOpts{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	pat := func(i int64) byte { return byte(i*31 + i>>13) }
	n, err := w.ReadFrom(&patternReader{limit: size, h: pat})
	if err != nil || n != size {
		t.Fatalf("ReadFrom: n=%d err=%v", n, err)
	}
	st := sealWriter(t, w)
	if st.Size != size {
		t.Fatalf("sealed size %d", st.Size)
	}

	// The bound: strictly fewer bytes pinned than two of the largest used
	// extent. The one-shot path pins the full 64 MiB (16384 pages).
	tiers := e.alloc.Tiers()
	largest := uint64(0)
	for i := range st.Extents {
		if s := tiers.Size(i); s > largest {
			largest = s
		}
	}
	bound := 2 * int64(largest) * int64(ps)
	if peak := w.PeakPinnedBytes(); peak >= bound {
		t.Errorf("peak pinned %d bytes, want < %d (2 x largest extent)", peak, bound)
	} else {
		t.Logf("64 MiB blob: peak pinned %.1f MiB, bound %.1f MiB, extents %d",
			float64(peak)/(1<<20), float64(bound)/(1<<20), len(st.Extents))
	}

	// And the content must still be exactly right.
	back, err := e.mgr.ReadAll(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < size; i += 997 {
		if back[i] != pat(i) {
			t.Fatalf("content mismatch at %d", i)
		}
	}
}

// TestWriterAbortReclaimsEverything aborts mid-blob (in both modes) and
// checks every allocated page went back to the allocator.
func TestWriterAbortReclaimsEverything(t *testing.T) {
	for _, stream := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream=%v", stream), func(t *testing.T) {
			e := newWriterEnv(t, true)
			w, err := e.mgr.NewWriter(WriterOpts{Stream: stream})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(randBytes(rand.New(rand.NewSource(3)), 3<<20)); err != nil {
				t.Fatal(err)
			}
			w.Abort()
			if st := e.alloc.Stats(); st.LivePages != 0 {
				t.Errorf("abort leaked %d live pages", st.LivePages)
			}
			if err := w.Close(); err != ErrWriterAborted {
				t.Errorf("Close after Abort: got %v want ErrWriterAborted", err)
			}
			if _, err := w.Write([]byte("x")); err != ErrWriterAborted {
				t.Errorf("Write after Abort: got %v want ErrWriterAborted", err)
			}
		})
	}
}

// TestWriterContextCancel cancels the writer's context mid-stream: further
// writes fail, Close reports the cancellation, and Abort reclaims all
// extents — the blobserver relies on this to unwind abandoned uploads.
func TestWriterContextCancel(t *testing.T) {
	e := newWriterEnv(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	w, err := e.mgr.NewWriter(WriterOpts{Stream: true, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := w.Write([]byte("more")); err != context.Canceled {
		t.Errorf("Write after cancel: got %v want context.Canceled", err)
	}
	if err := w.Close(); err != context.Canceled {
		t.Errorf("Close after cancel: got %v want context.Canceled", err)
	}
	if st := e.alloc.Stats(); st.LivePages != 0 {
		t.Errorf("cancelled writer leaked %d live pages", st.LivePages)
	}
}

// TestWriterSealIdempotent double-Close returns nil and the same state.
func TestWriterSealIdempotent(t *testing.T) {
	e := newWriterEnv(t, false)
	w, err := e.mgr.NewWriter(WriterOpts{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	st := sealWriter(t, w)
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if w.State() != st {
		t.Error("second Close changed the sealed state")
	}
	if _, err := w.Write([]byte("x")); err != ErrWriterSealed {
		t.Errorf("Write after Close: got %v want ErrWriterSealed", err)
	}
	if st.Size != 5 || st.SHA256 != sha256.Sum256([]byte("hello")) {
		t.Error("sealed state wrong")
	}
}

// TestWriterTooLarge drives the writer past the tier table on a tiny
// allocator and expects the typed sentinel.
func TestWriterTooLarge(t *testing.T) {
	e := newEnv(t, 1<<12, 1<<12, false)
	// Exhaust the heap: a 4096-page device cannot hold unbounded growth,
	// so the allocator (not the tier table) errors first; either way the
	// writer must fail cleanly and Abort must reclaim what it got.
	w, err := e.mgr.NewWriter(WriterOpts{Stream: false})
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	var werr error
	for i := 0; i < 64; i++ {
		if _, werr = w.Write(chunk); werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("writer accepted more bytes than the device holds")
	}
	w.Abort()
	if st := e.alloc.Stats(); st.LivePages != 0 {
		t.Errorf("failed writer leaked %d live pages", st.LivePages)
	}
}

// TestWriterTailLayoutMatchesPlan spot-checks that deferred tail
// conversion produces exactly the layout TierTable.Plan prescribes.
func TestWriterTailLayoutMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{1, ps + 1, 100 << 10, 1<<20 + 17, 1023 * ps} {
		e := newWriterEnv(t, true)
		w, err := e.mgr.NewWriter(WriterOpts{Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(randBytes(rng, size)); err != nil {
			t.Fatal(err)
		}
		st := sealWriter(t, w)
		slots, tailPages := e.alloc.Tiers().Plan(extent.PagesFor(uint64(size), ps), true)
		if len(st.Extents) != len(slots) {
			t.Errorf("size %d: %d extents, plan says %d", size, len(st.Extents), len(slots))
		}
		if st.Tail.Pages != tailPages {
			t.Errorf("size %d: tail %d pages, plan says %d", size, st.Tail.Pages, tailPages)
		}
	}
}

// TestWriterExpectSize: with the final size announced, a new blob's last
// extent is allocated as its tail directly; an announcement that is too
// small (the tail turns into its tier extent) or too large (Close converts
// the oversized tail) still seals the Plan layout with exact content, and
// no page leaks.
func TestWriterExpectSize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, size := range []int{1, 3*ps + 7, 100<<10 + 37, 1<<20 + 12345} {
		for _, hint := range []int{size, size / 2, 2 * size} {
			for _, stream := range []bool{false, true} {
				t.Run(fmt.Sprintf("size=%d/hint=%d/stream=%v", size, hint, stream), func(t *testing.T) {
					e := newWriterEnv(t, true)
					w, err := e.mgr.NewWriter(WriterOpts{Stream: stream})
					if err != nil {
						t.Fatal(err)
					}
					w.ExpectSize(uint64(hint))
					data := randBytes(rng, size)
					if _, err := w.ReadFrom(bytes.NewReader(data)); err != nil {
						t.Fatal(err)
					}
					st := sealWriter(t, w)
					slots, tailPages := e.alloc.Tiers().Plan(extent.PagesFor(uint64(size), ps), true)
					if len(st.Extents) != len(slots) || st.Tail.Pages != tailPages {
						t.Errorf("%d extents + %d-page tail; plan says %d + %d", len(st.Extents), st.Tail.Pages, len(slots), tailPages)
					}
					if live := e.alloc.Stats().LivePages; live != st.TotalPages(e.alloc.Tiers()) {
						t.Errorf("allocator holds %d live pages, the blob owns %d", live, st.TotalPages(e.alloc.Tiers()))
					}
					back, err := e.mgr.ReadAll(nil, st)
					if err != nil || !bytes.Equal(back, data) {
						t.Fatalf("content mismatch: %v", err)
					}
					if hint == size && stream && len(st.Extents) > 0 {
						// The tier extent the tail stands in for is never
						// pinned: two of the largest extent the blob uses
						// bound what the writer holds.
						largest := e.alloc.Tiers().Size(len(st.Extents) - 1)
						if peak, bound := w.PeakPinnedBytes(), 2*int64(max(largest, st.Tail.Pages))*ps; peak >= bound {
							t.Errorf("peak pinned %d bytes, want < %d (2 x largest extent)", peak, bound)
						}
					}
				})
			}
		}
	}
}
