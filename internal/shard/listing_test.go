package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"blobdb/internal/core"
)

// TestScatterGatherOrderedMerge: the merged listing is globally ordered,
// complete, duplicate-free, and respects the from/stop contract — across
// enough keys to force multiple cursor refills per shard.
func TestScatterGatherOrderedMerge(t *testing.T) {
	c := newCluster(t, 4, Options{})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	const n = 3 * cursorBatch // force refills on at least one shard
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("k%05d", i)
		clusterPut(t, c, "r", want[i], []byte(fmt.Sprintf("v%05d", i)))
	}
	var got []string
	err := c.ListKeys(context.Background(), "r", nil, func(e Entry) bool {
		got = append(got, e.Key)
		if e.ETag == "" {
			t.Errorf("key %q listed without an ETag", e.Key)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("merged listing is not globally ordered")
	}
	if len(got) != n {
		t.Fatalf("listed %d keys, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, got[i], want[i])
		}
	}

	// Resume from the middle, stop after ten.
	var page []string
	err = c.ListKeys(context.Background(), "r", []byte(want[n/2]), func(e Entry) bool {
		page = append(page, e.Key)
		return len(page) < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 10 || page[0] != want[n/2] {
		t.Fatalf("resumed page = %d entries starting %q, want 10 starting %q", len(page), page[0], want[n/2])
	}
}

// TestListingDedupsMidRebalanceDuplicates: a key that exists on two
// shards (the transient state of a live reshard: source copy not yet
// cleaned up) is emitted exactly once, and the emitted entry is the copy
// the ring currently routes reads to.
func TestListingDedupsMidRebalanceDuplicates(t *testing.T) {
	c := newCluster(t, 3, Options{})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		clusterPut(t, c, "r", k, []byte("owned-"+k))
	}
	// Plant stale duplicates of every key on some non-owning shard,
	// with different content, exactly as a not-yet-cleaned-up reshard
	// source would hold.
	ctx := context.Background()
	for _, k := range keys {
		owner := c.Ring().Shard("r", []byte(k))
		other := c.Shard((owner + 1) % c.NumShards())
		tx := other.DB().BeginCtx(ctx, nil)
		w, err := tx.CreateBlob(ctx, "r", []byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("stale-duplicate-" + k)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var got []Entry
	if err := c.ListKeys(ctx, "r", nil, func(e Entry) bool {
		got = append(got, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("listed %d entries, want %d (duplicates must merge)", len(got), len(keys))
	}
	for i, e := range got {
		if e.Key != keys[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.Key, keys[i])
		}
		if want := int64(len("owned-" + e.Key)); e.Size != want {
			t.Errorf("key %q: listed size %d (stale copy?), want %d from the ring owner", e.Key, e.Size, want)
		}
	}
}

// TestListingSkipsDownShards: a fenced shard's slice drops out of the
// listing instead of failing the whole merge.
func TestListingSkipsDownShards(t *testing.T) {
	c := newCluster(t, 3, Options{})
	if err := c.CreateRelation("r"); err != nil {
		t.Fatal(err)
	}
	perShard := map[int]int{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%02d", i)
		perShard[c.Ring().Shard("r", []byte(k))]++
		clusterPut(t, c, "r", k, []byte("v"))
	}
	c.MarkDown(2)
	n := 0
	if err := c.ListKeys(context.Background(), "r", nil, func(Entry) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if want := 60 - perShard[2]; n != want {
		t.Fatalf("listing with shard 2 down returned %d keys, want %d", n, want)
	}
}

// TestListingUnknownRelation: only when no live shard has the relation
// does the merge report ErrRelationNotFound.
func TestListingUnknownRelation(t *testing.T) {
	c := newCluster(t, 2, Options{})
	err := c.ListKeys(context.Background(), "nope", nil, func(Entry) bool { return true })
	if !errors.Is(err, core.ErrRelationNotFound) {
		t.Fatalf("err = %v, want ErrRelationNotFound", err)
	}
}
