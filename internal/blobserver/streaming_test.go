package blobserver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blobdb/internal/blobserver/blobclient"
	"blobdb/internal/core"
	"blobdb/internal/storage"
)

// patternByte is the deterministic content generator shared by the
// streaming tests: cheap to produce at any offset, so uploads never need a
// materialized buffer and readback can be spot-checked at arbitrary ranges.
func patternByte(i int64) byte { return byte(i*131 + 89) }

// patternReader streams patternByte without ever holding the blob: the
// largest buffer that exists on the client side is whatever slice the HTTP
// transport hands Read. It hashes what it emits so the test can check the
// server's ETag without a second pass.
type patternReader struct {
	off, n int64
	sum    hash.Hash
}

func newPatternReader(n int64) *patternReader {
	return &patternReader{n: n, sum: sha256.New()}
}

func (r *patternReader) Read(p []byte) (int, error) {
	if r.off >= r.n {
		return 0, io.EOF
	}
	if rem := r.n - r.off; int64(len(p)) > rem {
		p = p[:rem]
	}
	for i := range p {
		p[i] = patternByte(r.off + int64(i))
	}
	r.sum.Write(p)
	r.off += int64(len(p))
	return len(p), nil
}

// TestStreamingPut64MiBBoundedBuffering is the acceptance test for the
// streaming write path end to end: a 64 MiB PUT flows client → HTTP body →
// blob.Writer → extents, and the server's peak per-request blob buffering
// must stay under 2× the largest tier extent — far below the blob itself.
// The one-shot path this replaces pinned the whole 64 MiB per request.
func TestStreamingPut64MiBBoundedBuffering(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB upload")
	}
	// A roomier engine than newTestServer's: the blob alone is 16 K pages.
	dev := storage.NewMemDevice(storage.DefaultPageSize, 1<<16, nil)
	db, err := core.New(dev,
		core.WithPoolPages(1<<15), core.WithLogPages(1<<12), core.WithCkptPages(1<<13))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseCommitter() })
	srv := New(Config{DB: db})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := blobclient.New(ts.URL, blobclient.WithHTTPClient(ts.Client()))

	ctx := context.Background()
	if err := c.CreateRelation(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	const size = 64 << 20
	src := newPatternReader(size)
	etag, err := c.PutReader(ctx, "big", "stream", src, size)
	if err != nil {
		t.Fatal(err)
	}
	if want := hex.EncodeToString(src.sum.Sum(nil)); etag != want {
		t.Fatalf("etag %q, want %q", etag, want)
	}

	tx := db.Begin(nil)
	st, err := tx.BlobState("big", []byte("stream"))
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != size {
		t.Fatalf("committed size %d, want %d", st.Size, size)
	}
	if st.NumExtents() < 2 {
		t.Fatalf("64 MiB blob has %d extents; the bound below would be vacuous", st.NumExtents())
	}

	// The acceptance bound: peak per-request blob buffering < 2× the
	// largest tier extent this blob uses. Extent i has tier-i size and
	// tier sizes are nondecreasing, so the last extent is the largest.
	ps := int64(dev.PageSize())
	largest := int64(db.Allocator().Tiers().Size(st.NumExtents()-1)) * ps
	peak := srv.PutPeakBufferedBytes()
	if peak <= 0 {
		t.Fatal("PutPeakBufferedBytes reported nothing; gauge is not wired")
	}
	if peak >= 2*largest {
		t.Errorf("peak request buffering %d B >= bound %d B (2 × %d B largest extent)",
			peak, 2*largest, largest)
	} else {
		t.Logf("64 MiB PUT: peak buffering %.1f MiB < bound %.1f MiB (blob pins %.1f MiB one-shot)",
			float64(peak)/(1<<20), float64(2*largest)/(1<<20), float64(size)/(1<<20))
	}

	// Ranged readback at extent-crossing offsets against the generator.
	for _, rng := range []struct{ off, n int64 }{
		{0, 4096}, {size/2 - 33, 4096}, {size - 555, 555},
	} {
		part, err := c.GetRange(ctx, "big", "stream", rng.off, rng.n)
		if err != nil {
			t.Fatalf("range %+v: %v", rng, err)
		}
		for i, b := range part {
			if b != patternByte(rng.off+int64(i)) {
				t.Fatalf("byte %d of range %+v corrupted", i, rng)
			}
		}
	}
}

// TestPutBodyLimit413: a body over Config.MaxBlobBytes is cut off by
// http.MaxBytesReader mid-stream and mapped to 413 by the server's single
// error→status table; the partial blob must not survive.
func TestPutBodyLimit413(t *testing.T) {
	db, _, _, c := newTestServer(t, Config{MaxBlobBytes: 64 << 10})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "small"); err != nil {
		t.Fatal(err)
	}
	_, err := c.PutReader(ctx, "small", "huge", newPatternReader(1<<20), 1<<20)
	se, ok := err.(*blobclient.ServerError)
	if !ok || se.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: %v, want 413", err)
	}
	tx := db.Begin(nil)
	if _, err := tx.BlobState("small", []byte("huge")); err == nil {
		t.Error("rejected blob is visible")
	}
	tx.Commit()
	// Within the limit the same path succeeds.
	if _, err := c.PutReader(ctx, "small", "ok", newPatternReader(60<<10), 60<<10); err != nil {
		t.Fatal(err)
	}
}

// TestPutClientDisconnectReclaims: a client that dies mid-upload must not
// leak the extents its half-finished writer had already allocated — the
// request context aborts the transaction and every page comes back.
func TestPutClientDisconnectReclaims(t *testing.T) {
	db, _, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	baseline := db.Allocator().Stats().LivePages

	putCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, err := c.PutReader(putCtx, "r", "dead", &cancellingReader{
		inner:  newPatternReader(32 << 20),
		cancel: cancel,
		after:  8 << 20,
	}, 32<<20)
	if err == nil {
		t.Fatal("PUT survived its own context cancellation")
	}

	// The handler's abort runs after the transport tears down; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if live := db.Allocator().Stats().LivePages; live == baseline {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("cancelled upload leaked %d pages", live-baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, _, err := c.Get(ctx, "r", "dead"); !blobclient.IsNotFound(err) {
		t.Errorf("half-uploaded blob visible: %v", err)
	}
}

// cancellingReader cancels its context once `after` bytes have been read,
// modeling a client that disappears mid-upload.
type cancellingReader struct {
	inner  *patternReader
	cancel context.CancelFunc
	after  int64
	read   int64
}

func (r *cancellingReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	r.read += int64(n)
	if r.read >= r.after {
		r.cancel()
	}
	return n, err
}
