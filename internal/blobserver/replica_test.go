package blobserver

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"blobdb/internal/blobserver/blobclient"
	"blobdb/internal/core"
	"blobdb/internal/repl"
	"blobdb/internal/storage"
)

// newReplicaPair serves a primary engine and a read replica tailing it
// over real HTTP (the repl.HTTPSource transport, not an in-process
// source), returning both test servers plus the replica handle for
// explicit Sync/Promote calls.
func newReplicaPair(t *testing.T) (primary *httptest.Server, replica *httptest.Server, pc *blobclient.Client, rep *repl.Replica) {
	t.Helper()
	_, _, pts, c := newTestServer(t, Config{})

	rdb, err := core.New(storage.NewMemDevice(storage.DefaultPageSize, 1<<16, nil),
		core.WithPoolPages(1<<14),
		core.WithLogPages(1<<12),
		core.WithCkptPages(1<<13),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.CloseCommitter() })
	rep = repl.NewReplica(rdb, repl.NewHTTPSource(pts.URL, pts.Client()))
	rts := httptest.NewServer(New(Config{Replica: rep, PrimaryURL: pts.URL}))
	t.Cleanup(rts.Close)
	return pts, rts, c, rep
}

// TestReplicaE2E drives the full log-shipping path over HTTP: writes on
// the primary, Sync on the replica, bounded-staleness reads off the
// replica, write rejection, freshness floors, and promotion.
func TestReplicaE2E(t *testing.T) {
	pts, rts, pc, rep := newReplicaPair(t)
	ctx := context.Background()

	if err := pc.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("replicate me "), 1<<10)
	primaryETag, err := pc.Put(ctx, "r", "k", content)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Replica GET: same bytes, byte-identical ETag, and the staleness
	// horizon advertised in X-Replica-Applied-LSN.
	resp, err := rts.Client().Get(rts.URL + "/v1/r/k")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica GET: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("replica content diverged (%d bytes, want %d)", len(got), len(content))
	}
	if etag := resp.Header.Get("ETag"); etag != `"`+primaryETag+`"` {
		t.Fatalf("replica ETag %s, primary %q", etag, primaryETag)
	}
	applied, err := strconv.ParseUint(resp.Header.Get("X-Replica-Applied-LSN"), 10, 64)
	if err != nil || applied == 0 {
		t.Fatalf("X-Replica-Applied-LSN = %q, want a positive LSN",
			resp.Header.Get("X-Replica-Applied-LSN"))
	}
	if applied != rep.AppliedLSN() {
		t.Fatalf("header LSN %d, replica applied %d", applied, rep.AppliedLSN())
	}

	// A freshness floor at the horizon is satisfiable; one above it sheds
	// with 503 + Retry-After so the client retries the primary.
	for _, tc := range []struct {
		floor string
		want  int
	}{
		{strconv.FormatUint(applied, 10), http.StatusOK},
		{strconv.FormatUint(applied+1, 10), http.StatusServiceUnavailable},
		{"not-a-number", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(http.MethodGet, rts.URL+"/v1/r/k", nil)
		req.Header.Set("X-Min-LSN", tc.floor)
		resp, err := rts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("X-Min-LSN %q: status %d, want %d", tc.floor, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Fatal("staleness shed missing Retry-After")
		}
	}

	// Writes on the replica are misdirected: 421 pointing at the primary.
	req, _ := http.NewRequest(http.MethodPut, rts.URL+"/v1/r/k2", bytes.NewReader([]byte("x")))
	resp, err = rts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("replica PUT: %d, want 421", resp.StatusCode)
	}
	if base := resp.Header.Get("X-Primary-Base-URL"); base != pts.URL {
		t.Fatalf("X-Primary-Base-URL %q, want %q", base, pts.URL)
	}

	// A non-promoted replica refuses to serve the replication stream —
	// its WAL holds replica-local LSNs, not the primary's.
	resp, err = rts.Client().Get(rts.URL + "/repl/v1/pull?after=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replica pull: %d, want 409", resp.StatusCode)
	}
}

// TestReplicaClientFallback exercises blobclient.WithReadReplicas against
// real servers: replayed keys come off the replica, keys the replica has
// not seen yet fall back to the primary.
func TestReplicaClientFallback(t *testing.T) {
	pts, rts, pc, rep := newReplicaPair(t)
	ctx := context.Background()

	if err := pc.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	wantETag, err := pc.Put(ctx, "r", "old", []byte("replayed"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// "fresh" lands on the primary after the sync: the replica serves 404
	// for it and the client must transparently fall back.
	if _, err := pc.Put(ctx, "r", "fresh", []byte("primary only")); err != nil {
		t.Fatal(err)
	}

	rc := blobclient.New(pts.URL,
		blobclient.WithHTTPClient(pts.Client()),
		blobclient.WithReadReplicas(rts.URL))
	content, etag, err := rc.Get(ctx, "r", "old")
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "replayed" || etag != wantETag {
		t.Fatalf("replicated read: %q etag %q, want \"replayed\" etag %q", content, etag, wantETag)
	}
	content, _, err = rc.Get(ctx, "r", "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "primary only" {
		t.Fatalf("fallback read: %q, want the primary's content", content)
	}
}

// TestReplicaPromotion flips a replica into a primary: writes start
// succeeding and the replication stream opens up for chaining.
func TestReplicaPromotion(t *testing.T) {
	_, rts, pc, rep := newReplicaPair(t)
	ctx := context.Background()

	if err := pc.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Put(ctx, "r", "k", []byte("before failover")); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := rts.Client().Post(rts.URL+"/admin/v1/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d: %s", resp.StatusCode, body)
	}

	// The promoted server now takes writes...
	nc := blobclient.New(rts.URL, blobclient.WithHTTPClient(rts.Client()))
	if _, err := nc.Put(ctx, "r", "k", []byte("after failover")); err != nil {
		t.Fatalf("post-promotion PUT: %v", err)
	}
	content, _, err := nc.Get(ctx, "r", "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "after failover" {
		t.Fatalf("post-promotion read: %q", content)
	}
	// ...and serves the replication stream so a new replica can chain.
	presp, err := rts.Client().Get(rts.URL + "/repl/v1/pull?after=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("promoted pull: %d, want 200", presp.StatusCode)
	}
	if !rep.Promoted() {
		t.Fatal("Promoted() = false after promote")
	}
}

// TestReplBlobCutShortInstallsNothing: the /repl/v1/blob body declares
// its length, so a body an intermediary cuts short fails the replica's
// apply — no row, no leaked extent, no advance of the applied LSN — and a
// whole body on the next Sync installs the blob.
func TestReplBlobCutShortInstallsNothing(t *testing.T) {
	_, psrv, _, pc := newTestServer(t, Config{})
	var whole atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if whole.Load() || !strings.HasPrefix(r.URL.Path, "/repl/v1/blob/") {
			psrv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		psrv.ServeHTTP(rec, r)
		if rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("blob response Content-Length %q for a %d-byte body", rec.Header().Get("Content-Length"), rec.Body.Len())
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
		panic(http.ErrAbortHandler) // drop the connection mid-body
	}))
	t.Cleanup(proxy.Close)

	rdb, err := core.New(storage.NewMemDevice(storage.DefaultPageSize, 1<<14, nil),
		core.WithPoolPages(1<<12), core.WithLogPages(1<<10), core.WithCkptPages(1<<11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.CloseCommitter() })
	rep := repl.NewReplica(rdb, repl.NewHTTPSource(proxy.URL, proxy.Client()))

	ctx := context.Background()
	if err := pc.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("cut me short "), 20<<10)
	if _, err := pc.Put(ctx, "r", "k", content); err != nil {
		t.Fatal(err)
	}
	live := rdb.Allocator().Stats().LivePages
	if _, err := rep.Sync(ctx); err == nil {
		t.Fatal("Sync over a cut-short blob body succeeded")
	}
	if rep.AppliedLSN() != 0 {
		t.Errorf("applied LSN advanced to %d over a failed apply", rep.AppliedLSN())
	}
	if got := rdb.Allocator().Stats().LivePages; got != live {
		t.Errorf("replica live pages %d -> %d: the cut-short stream leaked extents", live, got)
	}
	tx := rdb.Begin(nil)
	_, err = tx.BlobState("r", []byte("k"))
	tx.Commit()
	if !errors.Is(err, core.ErrNotFound) && !errors.Is(err, core.ErrRelationNotFound) {
		t.Fatalf("cut-short blob installed a row (err %v)", err)
	}

	whole.Store(true)
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	tx = rdb.Begin(nil)
	defer tx.Commit()
	if got, err := tx.ReadBlobBytes("r", []byte("k")); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("whole body after the cut: %d bytes, %v", len(got), err)
	}
}
