package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"blobdb/internal/blob"
	"blobdb/internal/crashsim/refmodel"
)

// tortureSeed replays one torture seed; every failure prints the replay
// invocation so any sighting reproduces exactly. 0 runs tortureSeeds.
var tortureSeed = flag.Int64("torture-seed", 0, "seed for TestTortureAgainstReference (0: every seed of tortureSeeds)")

// tortureSeeds are the seeds every run covers: 2024; the seeds on which
// recovery once judged a torn put by an earlier process lifetime's commit
// record of the same transaction id, when ids restarted with every open;
// and the seeds that lost a relation created but not yet checkpointed,
// when CreateRelation logged nothing.
var tortureSeeds = []int64{2024, 6, 10, 13, 14, 21, 23, 26, 30, 34, 37, 42, 46, 47,
	2, 4, 7, 8, 19, 22, 28, 31, 36, 39, 40, 48, 50, 58, 59}

// TestTortureAgainstReference drives a long random mix of puts, streaming
// creates and appends, grows, updates, deletes, aborts (including
// mid-stream), checkpoints, and crash-recoveries against the shared
// reference model (internal/crashsim/refmodel). After every recovery the
// database must contain exactly the reference contents: committed data
// survives any crash point, uncommitted and torn data never does.
func TestTortureAgainstReference(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run is not short")
	}
	seeds := tortureSeeds
	if *tortureSeed != 0 {
		seeds = []int64{*tortureSeed}
	}
	// Every restart abandons an engine and its pool; without a limit the
	// collector lets a run of all seeds grow past 6 GB of RSS. Live data
	// stays far below the limit.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			torture(t, seed)
		})
	}
}

// torture runs one seed of TestTortureAgainstReference.
func torture(t *testing.T, seed int64) {
	defer func() {
		if t.Failed() {
			t.Logf("replay: go test ./internal/core -run TestTortureAgainstReference -torture-seed=%d", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	o := testOpts()
	db := openTest(t, o)
	db.CreateRelation("r")
	model := refmodel.New()

	randContent := func() []byte {
		b := make([]byte, 1+rng.Intn(40<<10))
		rng.Read(b)
		return b
	}
	pick := func() (string, bool) {
		// Keys() includes deleted keys; only committed ones are live.
		ks := make([]string, 0, len(model.Keys()))
		for _, k := range model.Keys() {
			if _, ok := model.Committed(k); ok {
				ks = append(ks, k)
			}
		}
		if len(ks) == 0 {
			return "", false
		}
		return ks[rng.Intn(len(ks))], true
	}
	committed := func(k string) []byte {
		v, ok := model.Committed(k)
		if !ok {
			t.Fatalf("model has no committed value for %q", k)
		}
		return v
	}

	verify := func(step int) {
		t.Helper()
		tx := db.Begin(nil)
		defer tx.Commit()
		seen := 0
		err := tx.Scan("r", nil, func(k, inline []byte, st *blob.State) bool {
			seen++
			want, ok := model.Committed(string(k))
			if !ok {
				t.Fatalf("step %d: phantom key %q", step, k)
			}
			if st == nil {
				t.Fatalf("step %d: %q stored inline", step, k)
			}
			if st.Size != uint64(len(want)) || st.SHA256 != sha256.Sum256(want) {
				t.Fatalf("step %d: %q state mismatch", step, k)
			}
			return true
		})
		if err != nil {
			t.Fatalf("step %d: scan: %v", step, err)
		}
		if seen != model.Len() {
			t.Fatalf("step %d: db has %d keys, reference has %d", step, seen, model.Len())
		}
		// Deep-verify a random sample.
		for i := 0; i < 5; i++ {
			if k, ok := pick(); ok {
				got, err := tx.ReadBlobBytes("r", []byte(k))
				if err != nil || !bytes.Equal(got, committed(k)) {
					t.Fatalf("step %d: content of %q diverged: %v", step, k, err)
				}
			}
		}
	}

	// stream pushes content through w in random-sized chunks, stopping
	// after roughly frac of the bytes when frac < 1.
	stream := func(w *blob.Writer, content []byte, frac float64) error {
		limit := int(float64(len(content)) * frac)
		for off := 0; off < limit; {
			n := 1 + rng.Intn(8<<10)
			if off+n > limit {
				n = limit - off
			}
			if _, err := w.Write(content[off : off+n]); err != nil {
				return err
			}
			off += n
		}
		return nil
	}

	// restart abandons db as a crash would and recovers the device.
	restart := func(step int, what string) {
		t.Helper()
		db2, _, err := recoverDB(o, nil)
		if err != nil {
			t.Fatalf("step %d: %s: %v", step, what, err)
		}
		db = db2
		verify(step)
	}

	var trail []string
	note := func(f string, args ...any) {
		trail = append(trail, fmt.Sprintf(f, args...))
		if len(trail) > 15 {
			trail = trail[1:]
		}
	}
	defer func() {
		if t.Failed() {
			for _, l := range trail {
				t.Log(l)
			}
		}
	}()
	const steps = 800
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 25: // put (insert or replace), committed or aborted
			key := fmt.Sprintf("k%03d", rng.Intn(60))
			content := randContent()
			note("step %d put %s %dB", step, key, len(content))
			tx := db.Begin(nil)
			if err := putBlob(tx, "r", []byte(key), content); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			if rng.Intn(5) == 0 {
				note("  abort")
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			} else {
				mustCommit(t, tx)
				model.Commit(key, content)
			}
		case op < 35: // streaming create: commit, mid-stream abort, or mid-stream crash
			key := fmt.Sprintf("k%03d", rng.Intn(60))
			content := randContent()
			tx := db.Begin(nil)
			w, err := tx.CreateBlob(nil, "r", []byte(key))
			if err != nil {
				t.Fatalf("step %d: create: %v", step, err)
			}
			switch fate := rng.Intn(5); {
			case fate == 0: // abort mid-stream: partial extents freed, nothing staged
				note("step %d stream-put %s %dB abort-midstream", step, key, len(content))
				if err := stream(w, content, 0.5); err != nil {
					t.Fatalf("step %d: stream: %v", step, err)
				}
				w.Abort()
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			case fate == 1: // crash mid-stream: recovery must roll the txn back
				note("step %d stream-put %s %dB crash-midstream", step, key, len(content))
				if err := stream(w, content, 0.5); err != nil {
					t.Fatalf("step %d: stream: %v", step, err)
				}
				// Quiesce the background flusher before recovery reads the
				// shared device; the partially flushed extents stay on disk
				// with no commit record, so recovery discards them.
				w.Abort()
				restart(step, "recover mid-stream")
			default:
				note("step %d stream-put %s %dB", step, key, len(content))
				if err := stream(w, content, 1); err != nil {
					t.Fatalf("step %d: stream: %v", step, err)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("step %d: close: %v", step, err)
				}
				mustCommit(t, tx)
				model.Commit(key, content)
			}
		case op < 45: // streaming append (resumable SHA), committed or aborted
			key, ok := pick()
			if !ok {
				continue
			}
			extra := randContent()
			tx := db.Begin(nil)
			w, err := tx.AppendBlob(nil, "r", []byte(key))
			if err != nil {
				t.Fatalf("step %d: append: %v", step, err)
			}
			if rng.Intn(5) == 0 {
				note("step %d stream-append %s +%dB abort-midstream", step, key, len(extra))
				if err := stream(w, extra, 0.5); err != nil {
					t.Fatalf("step %d: stream: %v", step, err)
				}
				w.Abort()
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			} else {
				note("step %d stream-append %s +%dB", step, key, len(extra))
				if err := stream(w, extra, 1); err != nil {
					t.Fatalf("step %d: stream: %v", step, err)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("step %d: close: %v", step, err)
				}
				mustCommit(t, tx)
				model.Commit(key, append(append([]byte(nil), committed(key)...), extra...))
			}
		case op < 52: // grow
			key, ok := pick()
			if !ok {
				continue
			}
			extra := randContent()
			note("step %d grow %s +%dB", step, key, len(extra))
			tx := db.Begin(nil)
			if err := growBlob(tx, "r", []byte(key), extra); err != nil {
				t.Fatalf("step %d: grow: %v", step, err)
			}
			if rng.Intn(5) == 0 {
				tx.Abort()
			} else {
				mustCommit(t, tx)
				model.Commit(key, append(append([]byte(nil), committed(key)...), extra...))
			}
		case op < 62: // update (random scheme)
			key, ok := pick()
			if !ok || len(committed(key)) == 0 {
				continue
			}
			old := committed(key)
			n := 1 + rng.Intn(len(old))
			off := rng.Intn(len(old) - n + 1)
			patch := make([]byte, n)
			rng.Read(patch)
			note("step %d update %s off=%d n=%d", step, key, off, n)
			tx := db.Begin(nil)
			if err := tx.UpdateBlob("r", []byte(key), uint64(off), patch, blob.UpdateScheme(rng.Intn(3))); err != nil {
				t.Fatalf("step %d: update: %v", step, err)
			}
			if rng.Intn(5) == 0 {
				tx.Abort()
			} else {
				mustCommit(t, tx)
				nv := append([]byte(nil), old...)
				copy(nv[off:], patch)
				model.Commit(key, nv)
			}
		case op < 74: // delete
			key, ok := pick()
			if !ok {
				continue
			}
			note("step %d delete %s", step, key)
			tx := db.Begin(nil)
			if err := tx.DeleteBlob("r", []byte(key)); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			if rng.Intn(5) == 0 {
				tx.Abort()
			} else {
				mustCommit(t, tx)
				model.Delete(key)
			}
		case op < 80: // torn transaction: WAL durable, extents lost
			key := fmt.Sprintf("k%03d", rng.Intn(60))
			if rng.Intn(2) == 0 {
				// Buffered put: extents never reach the device, so §III-C
				// validation fails the txn and the pre-image survives.
				note("step %d torn-put %s", step, key)
				tx := db.Begin(nil)
				if err := putBlob(tx, "r", []byte(key), randContent()); err != nil {
					t.Fatal(err)
				}
				if err := CrashBeforeExtentFlush(tx); err != nil {
					t.Fatal(err)
				}
			} else {
				// Streaming put: completed extents flush DURING the write and
				// Close drains the flusher, so even "crashing" before the
				// commit-time extent flush leaves the content on the device —
				// recovery validates the SHA and keeps the blob.
				content := randContent()
				note("step %d torn-stream-put %s", step, key)
				tx := db.Begin(nil)
				w, err := tx.CreateBlob(nil, "r", []byte(key))
				if err != nil {
					t.Fatal(err)
				}
				if err := stream(w, content, 1); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if err := CrashBeforeExtentFlush(tx); err != nil {
					t.Fatal(err)
				}
				model.Commit(key, content)
			}
			// Crash NOW: the torn state is in the WAL; recover.
			restart(step, "recover after torn txn")
		case op < 86: // checkpoint
			note("step %d checkpoint", step)
			if err := db.WAL().Checkpoint(nil); err != nil {
				t.Fatalf("step %d: checkpoint: %v", step, err)
			}
		case op < 95: // clean crash + recovery
			note("step %d recover", step)
			restart(step, "recover")
		default: // read a missing key
			tx := db.Begin(nil)
			if _, err := tx.ReadBlobBytes("r", []byte("never-existed")); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("step %d: phantom read: %v", step, err)
			}
			tx.Commit()
		}
		if step%100 == 99 {
			verify(step)
		}
	}
	verify(steps)
	// Final sanity: allocator live pages match the reference exactly after
	// one more recovery (no leaks across the whole history).
	restart(steps+1, "final recover")
	var wantPages uint64
	tiers := db.Allocator().Tiers()
	tx := db.Begin(nil)
	tx.Scan("r", nil, func(k, inline []byte, st *blob.State) bool {
		wantPages += st.TotalPages(tiers)
		return true
	})
	tx.Commit()
	if got := db.Allocator().Stats().LivePages; got != wantPages {
		t.Errorf("allocator LivePages = %d, blobs own %d (leak or double-free)", got, wantPages)
	}
}
