package blobserver

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"blobdb/internal/blobserver/blobclient"
	"blobdb/internal/core"
	"blobdb/internal/storage"
)

const recoveryDevPages = 1 << 14 // 64 MB file-backed device

func openRecoveryDB(t *testing.T, path string) (*core.DB, *core.RecoveryReport) {
	t.Helper()
	dev, err := storage.OpenFileDevice(path, storage.DefaultPageSize, recoveryDevPages, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	db, rep, err := core.RecoverDevice(dev, nil,
		core.WithPoolPages(1<<12),
		core.WithLogPages(1<<10),
		core.WithCkptPages(1<<11),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db, rep
}

// TestCommittedPutsSurviveCrashRestart is the §III-C recovery invariant on
// the network path: every PUT the server acknowledged (durability ack via
// the group-commit pipeline) must be present and SHA-valid after a crash —
// no final checkpoint, no clean shutdown, just reopening the device file.
func TestCommittedPutsSurviveCrashRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.blobdb")
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))

	want := map[string][]byte{}
	{
		db, _ := openRecoveryDB(t, path)
		ts := httptest.NewServer(New(Config{DB: db}))
		c := blobclient.New(ts.URL, blobclient.WithHTTPClient(ts.Client()))
		if err := c.CreateRelation(ctx, "images"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("xray-%d.png", i)
			content := make([]byte, 1+rng.Intn(100<<10))
			rng.Read(content)
			if _, err := c.Put(ctx, "images", key, content); err != nil {
				t.Fatal(err)
			}
			want[key] = content
		}
		// One acknowledged delete must also survive.
		if err := c.Delete(ctx, "images", "xray-0.png"); err != nil {
			t.Fatal(err)
		}
		delete(want, "xray-0.png")
		// CRASH: stop serving and abandon the engine without draining,
		// checkpointing, or closing anything. Acknowledged commits are on
		// the device; in-memory state dies here.
		ts.Close()
	}

	db2, rep := openRecoveryDB(t, path)
	if rep.CommittedTxns < 7 { // 6 puts + 1 delete
		t.Errorf("recovered %d committed txns, want >= 7", rep.CommittedTxns)
	}
	if rep.FailedBlobs != 0 {
		t.Errorf("recovery failed %d blobs; acknowledged writes must validate", rep.FailedBlobs)
	}
	ts2 := httptest.NewServer(New(Config{DB: db2}))
	defer ts2.Close()
	c2 := blobclient.New(ts2.URL, blobclient.WithHTTPClient(ts2.Client()))

	keys, err := c2.List(ctx, "images")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("recovered %d keys, want %d (%v)", len(keys), len(want), keys)
	}
	for key, content := range want {
		got, etag, err := c2.Get(ctx, "images", key)
		if err != nil {
			t.Fatalf("GET %s after restart: %v", key, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("%s corrupted across crash-restart", key)
		}
		if len(etag) != 64 {
			t.Errorf("%s recovered without a valid ETag: %q", key, etag)
		}
	}
	if _, _, err := c2.Get(ctx, "images", "xray-0.png"); !blobclient.IsNotFound(err) {
		t.Errorf("deleted key resurrected after recovery: %v", err)
	}
}
