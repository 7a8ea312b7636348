package blobserver

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"blobdb/internal/blobserver/blobclient"
	"blobdb/internal/core"
	"blobdb/internal/shard"
	"blobdb/internal/storage"
)

// newShardedServer serves the blob API over n independent in-memory
// engines behind the consistent-hash router.
func newShardedServer(t *testing.T, n int, cfg Config) (*shard.Cluster, *Server, *httptest.Server, *blobclient.Client) {
	t.Helper()
	dbs := make([]*core.DB, n)
	for i := range dbs {
		db, err := core.New(storage.NewMemDevice(storage.DefaultPageSize, 1<<14, nil),
			core.WithPoolPages(1<<12),
			core.WithLogPages(1<<11),
			core.WithCkptPages(1<<12),
		)
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	c := shard.New(dbs, shard.Options{})
	t.Cleanup(func() { c.Close() })
	cfg.Cluster = c
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return c, srv, ts, blobclient.New(ts.URL, blobclient.WithHTTPClient(ts.Client()))
}

// TestShardedE2E drives the single-engine API surface through a 4-shard
// router: the HTTP contract must be indistinguishable from one engine.
func TestShardedE2E(t *testing.T) {
	cl, _, _, c := newShardedServer(t, 4, Config{})
	ctx := context.Background()

	if err := c.CreateRelation(ctx, "images"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRelation(ctx, "images"); err == nil {
		t.Fatal("duplicate relation create succeeded")
	} else if se, ok := err.(*blobclient.ServerError); !ok || se.Status != http.StatusConflict {
		t.Fatalf("duplicate relation create: %v, want 409", err)
	}
	rels, err := c.Relations(ctx)
	if err != nil || len(rels) != 1 || rels[0] != "images" {
		t.Fatalf("Relations = %v, %v", rels, err)
	}

	// Spread enough keys that all 4 shards hold some.
	const n = 64
	contents := map[string][]byte{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("img-%03d.png", i)
		contents[k] = bytes.Repeat([]byte{byte(i)}, 100+i)
		etag, err := c.Put(ctx, "images", k, contents[k])
		if err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		sum := sha256.Sum256(contents[k])
		if etag != hex.EncodeToString(sum[:]) {
			t.Fatalf("put %q: etag %q is not the content SHA-256", k, etag)
		}
	}
	for _, s := range cl.Shards() {
		if s.Routed() == 0 {
			t.Errorf("shard %d received no traffic across %d keys", s.ID(), n)
		}
	}

	// Reads route to the same shards the writes landed on.
	for k, want := range contents {
		got, _, err := c.Get(ctx, "images", k)
		if err != nil {
			t.Fatalf("get %q: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("get %q: wrong content", k)
		}
	}

	// Ranged read and conditional revalidation through the router.
	k0 := "img-000.png"
	if part, err := c.GetRange(ctx, "images", k0, 10, 20); err != nil || !bytes.Equal(part, contents[k0][10:30]) {
		t.Fatalf("ranged get: %v", err)
	}
	_, etag, err := c.Get(ctx, "images", k0)
	if err != nil {
		t.Fatal(err)
	}
	if _, notModified, err := c.GetIfNoneMatch(ctx, "images", k0, etag); err != nil || !notModified {
		t.Fatalf("If-None-Match revalidation: notModified=%v err=%v", notModified, err)
	}

	// The merged listing is the full, ordered keyspace.
	keys, err := c.List(ctx, "images")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("listed %d keys, want %d", len(keys), n)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i].Key < keys[j].Key }) {
		t.Fatal("scatter-gather listing not globally ordered")
	}

	// Delete through the router, then 404.
	if err := c.Delete(ctx, "images", k0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, "images", k0); err == nil {
		t.Fatal("get after delete succeeded")
	} else if se, ok := err.(*blobclient.ServerError); !ok || se.Status != http.StatusNotFound {
		t.Fatalf("get after delete: %v, want 404", err)
	}
}

// TestShardedCrashIsolation: fencing one shard turns exactly its keyspace
// slice into fast 503 + Retry-After while the other shards' keys — and
// the merged listing — keep serving.
func TestShardedCrashIsolation(t *testing.T) {
	cl, _, ts, c := newShardedServer(t, 4, Config{RetryAfter: 2 * time.Second})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 80)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		if _, err := c.Put(ctx, "r", keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	const down = 2
	cl.MarkDown(down)

	served, fenced := 0, 0
	for _, k := range keys {
		owner := cl.Ring().Shard("r", []byte(k))
		_, _, err := c.Get(ctx, "r", k)
		if owner == down {
			se, ok := err.(*blobclient.ServerError)
			if !ok || se.Status != http.StatusServiceUnavailable {
				t.Fatalf("key %q on fenced shard: %v, want 503", k, err)
			}
			fenced++
		} else {
			if err != nil {
				t.Fatalf("key %q on healthy shard %d: %v", k, owner, err)
			}
			served++
		}
	}
	if fenced == 0 || served == 0 {
		t.Fatalf("degenerate split: %d fenced, %d served", fenced, served)
	}

	// The 503 must carry Retry-After so clients back off instead of
	// hammering the fenced slice.
	var downKey string
	for _, k := range keys {
		if cl.Ring().Shard("r", []byte(k)) == down {
			downKey = k
			break
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/r/" + downKey)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("fenced GET: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Listing degrades to the healthy shards' slices instead of failing.
	listed, err := c.List(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != served {
		t.Fatalf("listing with shard %d down: %d keys, want %d", down, len(listed), served)
	}

	// Revive restores the slice.
	cl.Revive(down, cl.Shard(down).DB())
	if _, _, err := c.Get(ctx, "r", downKey); err != nil {
		t.Fatalf("after revive: %v", err)
	}
}

// TestShardedConcurrentLoad hammers a 4-shard server from many goroutines
// — the race detector is the real assertion here.
func TestShardedConcurrentLoad(t *testing.T) {
	_, _, _, c := newShardedServer(t, 4, Config{MaxInFlight: 256})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 16, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("w%02d-%03d", w, i)
				if _, err := c.Put(ctx, "r", k, []byte(k)); err != nil {
					t.Errorf("put %q: %v", k, err)
					return
				}
				if got, _, err := c.Get(ctx, "r", k); err != nil || string(got) != k {
					t.Errorf("get %q = %q, %v", k, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	keys, err := c.List(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != workers*perWorker {
		t.Fatalf("listed %d keys, want %d", len(keys), workers*perWorker)
	}
}

// TestShardedVars: /debug/vars exposes the per-shard namespaces and the
// router counters next to the aggregate engine maps.
func TestShardedVars(t *testing.T) {
	_, _, _, c := newShardedServer(t, 2, Config{})
	ctx := context.Background()
	if err := c.CreateRelation(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "r", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.List(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	vars, err := c.Vars(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := vars["blobserver"].(map[string]any)
	if !ok {
		t.Fatalf("no blobserver map in vars: %T", vars["blobserver"])
	}
	for _, want := range []string{"shard.0.commit", "shard.0.pool", "shard.1.commit", "shard.1.pool", "shard_router", "commit_pipeline"} {
		if _, ok := bs[want]; !ok {
			var got []string
			for k := range bs {
				if strings.HasPrefix(k, "shard") {
					got = append(got, k)
				}
			}
			t.Fatalf("vars missing %q (shard vars present: %v)", want, got)
		}
	}
	router := bs["shard_router"].(map[string]any)
	if router["num_shards"].(float64) != 2 {
		t.Fatalf("shard_router.num_shards = %v", router["num_shards"])
	}
	sg := router["scatter_gather"].(map[string]any)
	if sg["listings"].(float64) < 1 {
		t.Fatal("scatter_gather.listings not counted")
	}
	routed := 0.0
	shards := router["shards"].(map[string]any)
	for _, v := range shards {
		routed += v.(map[string]any)["routed"].(float64)
	}
	if routed == 0 {
		t.Fatal("no routed ops counted")
	}
}
