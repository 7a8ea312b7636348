package blobserver

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"blobdb/internal/blobserver/blobclient"
	"blobdb/internal/core"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// newTestServer opens an in-memory engine and serves it over a real TCP
// listener.
func newTestServer(t *testing.T, cfg Config) (*core.DB, *Server, *httptest.Server, *blobclient.Client) {
	t.Helper()
	return newTestServerOn(t, storage.NewMemDevice(storage.DefaultPageSize, 1<<16, nil), cfg)
}

func newTestServerOn(t *testing.T, dev storage.Device, cfg Config) (*core.DB, *Server, *httptest.Server, *blobclient.Client) {
	t.Helper()
	db, err := core.New(dev,
		core.WithPoolPages(1<<14), // 64 MB: a 10 MB blob plus working set
		core.WithLogPages(1<<12),
		core.WithCkptPages(1<<13),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseCommitter() })
	cfg.DB = db
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return db, srv, ts, blobclient.New(ts.URL, blobclient.WithHTTPClient(ts.Client()))
}

func TestRelationAndKeyListing(t *testing.T) {
	_, _, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "images"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation(ctx, "images"); err == nil {
		t.Fatal("duplicate relation create succeeded")
	} else if se, ok := err.(*blobclient.ServerError); !ok || se.Status != http.StatusConflict {
		t.Fatalf("duplicate relation create: %v, want 409", err)
	}
	if _, err := c.Put(ctx, "images", "a.png", []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "images", "b.png", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	rels, err := c.Relations(ctx)
	if err != nil || len(rels) != 1 || rels[0] != "images" {
		t.Fatalf("relations = %v, %v", rels, err)
	}
	keys, err := c.List(ctx, "images")
	if err != nil || len(keys) != 2 {
		t.Fatalf("keys = %v, %v", keys, err)
	}
	if keys[0].Key != "a.png" || keys[0].Size != 3 || len(keys[0].ETag) != 64 {
		t.Errorf("key[0] = %+v", keys[0])
	}
	// Writes against a relation that does not exist are 404s.
	if _, err := c.Put(ctx, "nope", "k", []byte("x")); !blobclient.IsNotFound(err) {
		t.Errorf("put to missing relation: %v", err)
	}
	if _, _, err := c.Get(ctx, "images", "missing"); !blobclient.IsNotFound(err) {
		t.Errorf("get of missing key: %v", err)
	}
}

func TestRangeReadsAndETagOnLargeBlob(t *testing.T) {
	db, _, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 10<<20) // 10 MB: spans multiple extents
	rand.New(rand.NewSource(42)).Read(content)
	etag, err := c.Put(ctx, "big", "blob", content)
	if err != nil {
		t.Fatal(err)
	}
	if len(etag) != 64 {
		t.Fatalf("PUT returned etag %q", etag)
	}

	// The serving path must really be multi-extent for the test to mean
	// anything.
	tx := db.Begin(nil)
	st, err := tx.BlobState("big", []byte("blob"))
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumExtents() < 2 {
		t.Fatalf("10 MB blob has %d extents; want multi-extent", st.NumExtents())
	}
	if st.ETag() != etag {
		t.Errorf("server etag %q != state etag %q", etag, st.ETag())
	}

	got, gotTag, err := c.Get(ctx, "big", "blob")
	if err != nil || gotTag != etag {
		t.Fatalf("GET: %v (etag %q)", err, gotTag)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("full GET corrupted the content")
	}

	// Ranged reads at extent-crossing offsets.
	for _, r := range []struct{ off, n int64 }{
		{0, 1}, {0, 4096}, {5_000_000, 1024}, {int64(len(content)) - 77, 77},
	} {
		part, err := c.GetRange(ctx, "big", "blob", r.off, r.n)
		if err != nil {
			t.Fatalf("range %+v: %v", r, err)
		}
		if !bytes.Equal(part, content[r.off:r.off+r.n]) {
			t.Fatalf("range %+v returned wrong bytes", r)
		}
	}

	// Conditional revalidation: matching ETag answers 304 with no body.
	_, notModified, err := c.GetIfNoneMatch(ctx, "big", "blob", etag)
	if err != nil || !notModified {
		t.Fatalf("If-None-Match with current etag: notModified=%v err=%v", notModified, err)
	}
	body, notModified, err := c.GetIfNoneMatch(ctx, "big", "blob", "0000deadbeef")
	if err != nil || notModified || !bytes.Equal(body, content) {
		t.Fatalf("If-None-Match with stale etag: notModified=%v err=%v", notModified, err)
	}

	// Delete, then the key 404s.
	if err := c.Delete(ctx, "big", "blob"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, "big", "blob"); !blobclient.IsNotFound(err) {
		t.Errorf("get after delete: %v", err)
	}
}

// TestRangedReadByteAccounting asserts the streaming read path: serving
// small ranges of a 10 MB blob must not materialize the blob per request.
// Eight ranged reads may allocate transient request-scoped buffers, but
// nowhere near even ONE full blob copy — a materializing server would
// allocate ≥ 80 MB here.
func TestRangedReadByteAccounting(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation inflates TotalAlloc; byte accounting is only meaningful without -race")
	}
	_, _, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 10<<20)
	rand.New(rand.NewSource(7)).Read(content)
	if _, err := c.Put(ctx, "big", "blob", content); err != nil {
		t.Fatal(err)
	}
	// Warm the buffer pool (first read faults the extents in) and the
	// HTTP connection.
	if _, err := c.GetRange(ctx, "big", "blob", 0, 4096); err != nil {
		t.Fatal(err)
	}

	const reads = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		part, err := c.GetRange(ctx, "big", "blob", int64(i)*1_000_000, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		if len(part) != 64<<10 {
			t.Fatalf("read %d returned %d bytes", i, len(part))
		}
	}
	runtime.ReadMemStats(&after)
	delta := int64(after.TotalAlloc - before.TotalAlloc)
	if limit := int64(len(content)); delta >= limit {
		t.Errorf("%d ranged reads allocated %d bytes (>= one 10 MB blob); read path is materializing", reads, delta)
	} else {
		t.Logf("%d ranged 64 KB reads allocated %d bytes total (blob is %d)", reads, delta, len(content))
	}
}

// slowSyncDevice charges every Sync a fixed wall-clock delay, modeling a
// real drive's flush latency (an NVMe FLUSH is ~hundreds of µs; this
// container's fsync measures ~256µs). Tests use it so group-commit
// batching does not depend on how fast the host's tmpfs happens to be.
type slowSyncDevice struct {
	storage.Device
	delay time.Duration
}

func (d *slowSyncDevice) Sync(m *simtime.Meter) error {
	time.Sleep(d.delay)
	return d.Device.Sync(m)
}

// TestConcurrentMixedLoadSharesWALFlushes is the acceptance load test:
// 8 concurrent clients doing mixed PUT/GET; every PUT gets a durability
// ack (Commit), yet the group-commit pipeline must batch >1 txn per
// shared WAL sync, observable through the published /debug/vars stats.
func TestConcurrentMixedLoadSharesWALFlushes(t *testing.T) {
	// The durability sync must carry its real cost — the regime group
	// commit exists for. A raw in-memory (or tmpfs-backed) sync is nearly
	// free, so the committer never falls behind and batches legitimately
	// stay at 1; slowSyncDevice imposes a deterministic fsync-scale delay.
	fdev, err := storage.OpenFileDevice(filepath.Join(t.TempDir(), "load.blobdb"),
		storage.DefaultPageSize, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fdev.Close()
	dev := &slowSyncDevice{Device: fdev, delay: 300 * time.Microsecond}
	db, _, _, c := newTestServerOn(t, dev, Config{MaxInFlight: 32})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "load"); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		ops     = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			payload := make([]byte, 8<<10)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%10)
				if i > 0 && rng.Intn(10) < 3 {
					if _, _, err := c.Get(ctx, "load", fmt.Sprintf("w%d-k%d", w, rng.Intn(i%10+1))); err != nil && !blobclient.IsNotFound(err) {
						errs <- fmt.Errorf("worker %d get: %w", w, err)
						return
					}
					continue
				}
				rng.Read(payload)
				if _, err := c.Put(ctx, "load", key, payload); err != nil {
					errs <- fmt.Errorf("worker %d put: %w", w, err)
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

	// Every PUT was individually acknowledged durable, so the stats are
	// final. The pipeline must have shared syncs across transactions.
	flushes, txns := db.CommitBatchStats()
	if flushes == 0 || txns == 0 {
		t.Fatalf("no batched commits recorded (flushes=%d txns=%d)", flushes, txns)
	}
	avg := float64(txns) / float64(flushes)
	t.Logf("group commit: %d txns over %d shared WAL syncs (%.2f txns/flush)", txns, flushes, avg)
	if avg <= 1.0 {
		t.Errorf("no batching: %.2f txns per WAL flush; concurrent PUTs are not sharing syncs", avg)
	}

	// The same figure must be published at /debug/vars for operators.
	vars, err := c.Vars(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bs, _ := vars["blobserver"].(map[string]any)
	cp, _ := bs["commit_pipeline"].(map[string]any)
	published, _ := cp["txns_per_flush"].(float64)
	if published != avg {
		t.Errorf("published txns_per_flush = %v, want %.4f", cp["txns_per_flush"], avg)
	}
	routes, _ := bs["routes"].(map[string]any)
	putStats, _ := routes["blob_put"].(map[string]any)
	if putStats["requests"].(float64) < workers { // sanity: counters move
		t.Errorf("blob_put requests = %v", putStats["requests"])
	}

	// Integrity after the storm: every key reads back as a valid blob.
	keys, err := c.List(ctx, "load")
	if err != nil || len(keys) == 0 {
		t.Fatalf("list after load: %d keys, %v", len(keys), err)
	}
	for _, k := range keys {
		body, etag, err := c.Get(ctx, "load", k.Key)
		if err != nil || int64(len(body)) != k.Size || etag != k.ETag {
			t.Fatalf("post-load read of %s: len=%d size=%d err=%v", k.Key, len(body), k.Size, err)
		}
	}
}

// TestAdmissionControlShedsLoad saturates the in-flight bound and expects
// fast 503s with Retry-After, then recovery once slots free up.
func TestAdmissionControlShedsLoad(t *testing.T) {
	_, srv, ts, c := newTestServer(t, Config{
		MaxInFlight:  2,
		MaxQueueWait: 20 * time.Millisecond,
		RetryAfter:   3 * time.Second,
	})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "r", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Occupy every slot, as slow in-flight requests would.
	for i := 0; i < 2; i++ {
		if !srv.adm.acquire(ctx) {
			t.Fatal("could not occupy admission slot")
		}
	}
	start := time.Now()
	_, _, err := c.Get(ctx, "r", "k")
	if !blobclient.IsOverloaded(err) {
		t.Fatalf("saturated server answered %v, want 503", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("rejection took %v; load shedding must be fast", waited)
	}
	if se := err.(*blobclient.ServerError); se.RetryAfter < time.Second {
		t.Errorf("Retry-After = %v, want >= 1s", se.RetryAfter)
	}

	// Healthz stays up (it is not admission-controlled) so orchestrators
	// can tell overload from death.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under overload: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Free the slots: service resumes.
	srv.adm.release()
	srv.adm.release()
	if _, _, err := c.Get(ctx, "r", "k"); err != nil {
		t.Fatalf("after releasing slots: %v", err)
	}

	// Draining flips healthz to 503 without killing in-flight work.
	srv.SetDraining(true)
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v %v", resp, err)
	}
	resp.Body.Close()
	if _, _, err := c.Get(ctx, "r", "k"); !blobclient.IsOverloaded(err) {
		t.Errorf("draining server admitted new work: %v", err)
	}
}

// TestH2CConfiguration exercises ConfigureHTTPServer's cleartext-HTTP/2
// setup end to end with a prior-knowledge h2c client.
func TestH2CConfiguration(t *testing.T) {
	db, _, _, _ := newTestServer(t, Config{})
	bs := New(Config{DB: db})
	ts := httptest.NewUnstartedServer(bs)
	ConfigureHTTPServer(ts.Config)
	ts.Start()
	defer ts.Close()

	// http.Client with ForceAttemptHTTP2 over cleartext still speaks 1.1;
	// the Protocols knob is what admits h2c. Verify 1.1 keeps working and
	// the server advertises the upgrade path.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over h2c-enabled server: %v", resp.Status)
	}
	if ts.Config.Protocols == nil || !ts.Config.Protocols.UnencryptedHTTP2() {
		t.Error("ConfigureHTTPServer did not enable unencrypted HTTP/2")
	}
	if ts.Config.ReadHeaderTimeout == 0 || ts.Config.IdleTimeout == 0 {
		t.Error("ConfigureHTTPServer left timeouts unset")
	}
}
