package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"blobdb/internal/core"
)

// TestRebalanceMovesSliceAndCleansUp: adding a 4th shard to a loaded
// 3-shard cluster moves exactly the new shard's slice, every key stays
// readable through the router, moved keys live only on the new shard
// afterwards, and the progress counters account for the moved bytes.
func TestRebalanceMovesSliceAndCleansUp(t *testing.T) {
	c := newCluster(t, 3, Options{})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	const n = 150
	vals := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%04d", i)
		vals[k] = fmt.Sprintf("value-%04d", i)
		clusterPut(t, c, "r", k, []byte(vals[k]))
	}

	id, err := c.AddShard(newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Ring().Has(id) {
		t.Fatal("AddShard must not join the ring before Rebalance")
	}
	ctx := context.Background()
	if err := c.Rebalance(ctx, id); err != nil {
		t.Fatal(err)
	}
	if !c.Ring().Has(id) {
		t.Fatal("Rebalance did not cut the ring over")
	}

	moved := 0
	for k, want := range vals {
		got, err := clusterGet(c, "r", k)
		if err != nil {
			t.Fatalf("after rebalance, key %q: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("key %q = %q, want %q", k, got, want)
		}
		owner := c.Ring().Shard("r", []byte(k))
		if owner == id {
			moved++
		}
		// The key must exist on its owner and nowhere else.
		for _, s := range c.Shards() {
			tx := s.DB().BeginCtx(ctx, nil)
			_, err := tx.BlobState("r", []byte(k))
			tx.Commit()
			if s.ID() == owner && err != nil {
				t.Fatalf("key %q missing on owner shard %d: %v", k, owner, err)
			}
			if s.ID() != owner && !errors.Is(err, core.ErrKeyNotFound) {
				t.Fatalf("key %q still present on non-owner shard %d (err=%v)", k, s.ID(), err)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no key moved to the new shard")
	}
	if c.RebalancedBlobs() < int64(moved) {
		t.Errorf("RebalancedBlobs = %d, want >= %d", c.RebalancedBlobs(), moved)
	}
	if c.RebalancedBytes() == 0 {
		t.Error("RebalancedBytes = 0 after moving blobs")
	}
}

// TestRebalanceUnderConcurrentTraffic: writers and deleters keep hitting
// the router while the reshard streams; afterwards, the routed view is
// exactly the final state of every key — overwrites mid-reshard are not
// lost and deletes do not resurrect.
func TestRebalanceUnderConcurrentTraffic(t *testing.T) {
	c := newCluster(t, 2, Options{})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		clusterPut(t, c, "r", fmt.Sprintf("k%04d", i), []byte("v0"))
	}
	id, err := c.AddShard(newEngine(t))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- c.Rebalance(context.Background(), id) }()

	// Concurrent traffic: overwrite the first half, delete every 10th of
	// the second half.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n/2; i += 4 {
				k := fmt.Sprintf("k%04d", i)
				if err := clusterPutErr(c, "r", k, []byte("v1")); err != nil {
					t.Errorf("concurrent put %q: %v", k, err)
					return
				}
			}
		}(w)
	}
	deleted := map[string]bool{}
	for i := n / 2; i < n; i += 10 {
		k := fmt.Sprintf("k%04d", i)
		deleted[k] = true
		if err := clusterDelete(c, "r", k); err != nil {
			t.Fatalf("concurrent delete %q: %v", k, err)
		}
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%04d", i)
		got, err := clusterGet(c, "r", k)
		switch {
		case deleted[k]:
			if !errors.Is(err, core.ErrKeyNotFound) {
				t.Fatalf("deleted key %q resurrected: %q, %v", k, got, err)
			}
		case i < n/2:
			if err != nil || string(got) != "v1" {
				t.Fatalf("overwritten key %q = %q, %v; want v1", k, got, err)
			}
		default:
			if err != nil || string(got) != "v0" {
				t.Fatalf("untouched key %q = %q, %v; want v0", k, got, err)
			}
		}
	}
}

// TestRebalanceCleanupAfterRoutedDelete drives the reshard phases by hand
// and deletes a moved key through the router between the cutover and the
// cleanup. The delete reaches only the new owner, so the destination row
// is gone when cleanup runs: that is a legitimate state, and cleanup must
// still remove every stale source copy instead of failing the reshard.
func TestRebalanceCleanupAfterRoutedDelete(t *testing.T) {
	c := newCluster(t, 2, Options{})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		clusterPut(t, c, "r", fmt.Sprintf("k%04d", i), []byte("v0"))
	}
	id, err := c.AddShard(newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	moved, err := c.cutover(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) == 0 {
		t.Fatal("cutover moved no key")
	}
	victim := moved[0].key
	if err := clusterDelete(c, "r", victim); err != nil {
		t.Fatalf("routed delete of moved key %q: %v", victim, err)
	}
	if err := cleanupMoved(ctx, moved); err != nil {
		t.Fatalf("cleanup after a routed delete: %v", err)
	}

	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%04d", i)
		owner := c.Ring().Shard("r", []byte(k))
		for _, s := range c.Shards() {
			tx := s.DB().BeginCtx(ctx, nil)
			_, err := tx.BlobState("r", []byte(k))
			tx.Commit()
			held := err == nil
			if err != nil && !errors.Is(err, core.ErrKeyNotFound) {
				t.Fatalf("key %q on shard %d: %v", k, s.ID(), err)
			}
			if want := s.ID() == owner && k != victim; held != want {
				t.Errorf("key %q on shard %d (owner %d): present=%v, want %v", k, s.ID(), owner, held, want)
			}
		}
	}
}

// TestRebalanceSerializedAndValidated: a second concurrent reshard is
// refused, as is resharding to an unknown or already-member shard.
func TestRebalanceSerializedAndValidated(t *testing.T) {
	c := newCluster(t, 2, Options{})
	if err := c.Rebalance(context.Background(), 0); err == nil {
		t.Fatal("resharding to an existing ring member succeeded")
	}
	if err := c.Rebalance(context.Background(), 99); err == nil {
		t.Fatal("resharding to an unknown shard succeeded")
	}
	c.rebalancing.Store(true)
	if err := c.Rebalance(context.Background(), 0); !errors.Is(err, ErrRebalanceInProgress) {
		t.Fatalf("err = %v, want ErrRebalanceInProgress", err)
	}
	c.rebalancing.Store(false)
}
