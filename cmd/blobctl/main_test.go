package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blobdb/internal/core"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

// blobctl runs one invocation against db and returns its stdout.
func blobctl(t *testing.T, db string, stdin []byte, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"-db", db}, args...), bytes.NewReader(stdin), &out); err != nil {
		t.Fatalf("blobctl %v: %v", args, err)
	}
	return out.String()
}

// TestInvocationsShareTheFileInPlace runs put, get, ls and stat as
// separate invocations on one database file: each recovers what the
// previous one committed, and nothing is staged beside the file.
func TestInvocationsShareTheFileInPlace(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "app.blobdb")
	content := bytes.Repeat([]byte("xray-0123456789"), 5000) // spans several extents

	blobctl(t, db, nil, "init")
	blobctl(t, db, content, "put", "images", "xray1.png")
	blobctl(t, db, []byte("small"), "put", "images", "note.txt")

	if got := blobctl(t, db, nil, "get", "images", "xray1.png"); got != string(content) {
		t.Fatalf("get returned %d bytes, want the %d put", len(got), len(content))
	}
	ls := blobctl(t, db, nil, "ls", "images")
	for _, want := range []string{"75000  xray1.png", "5  note.txt"} {
		if !strings.Contains(ls, want) {
			t.Errorf("ls output %q lacks %q", ls, want)
		}
	}
	if stat := blobctl(t, db, nil, "stat", "images", "xray1.png"); !strings.Contains(stat, "size:    75000 bytes") {
		t.Errorf("stat output %q lacks the size", stat)
	}

	blobctl(t, db, nil, "rm", "images", "note.txt")
	var out bytes.Buffer
	if err := run([]string{"-db", db, "get", "images", "note.txt"}, nil, &out); err == nil {
		t.Errorf("get of a removed key succeeded with %d bytes", out.Len())
	}
	if got := blobctl(t, db, nil, "get", "images", "xray1.png"); got != string(content) {
		t.Errorf("after rm, get returned %d bytes, want %d", len(got), len(content))
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "app.blobdb" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only app.blobdb", names)
	}
}

// TestUsageErrors checks that malformed command lines are rejected
// before any database file is touched.
func TestUsageErrors(t *testing.T) {
	db := filepath.Join(t.TempDir(), "app.blobdb")
	for _, args := range [][]string{{}, {"put", "images"}, {"ls"}, {"frob"}} {
		if err := run(append([]string{"-db", db}, args...), nil, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("blobctl %v: got %v, want a usage error", args, err)
		}
	}
	if _, err := os.Stat(db); !os.IsNotExist(err) {
		t.Errorf("a usage error created the database file (stat: %v)", err)
	}
}

// TestFsckNamesCorruptKey: fsck passes on a healthy file, and after one
// blob's first page is overwritten on disk — corruption startup recovery
// trusts past, since the blob landed — it fails naming that key.
func TestFsckNamesCorruptKey(t *testing.T) {
	db := filepath.Join(t.TempDir(), "app.blobdb")
	blobctl(t, db, nil, "init")
	blobctl(t, db, bytes.Repeat([]byte("a"), 9000), "put", "images", "good.png")
	blobctl(t, db, bytes.Repeat([]byte("b"), 9000), "put", "images", "rotten.png")
	if out := blobctl(t, db, nil, "fsck", db); !strings.HasPrefix(out, "ok:") {
		t.Fatalf("fsck of a healthy file printed %q", out)
	}

	dev, err := storage.OpenFileDevice(db, storage.DefaultPageSize, devPages, simtime.DefaultNVMe())
	if err != nil {
		t.Fatal(err)
	}
	edb, _, err := core.RecoverDevice(dev, nil,
		core.WithPoolPages(1<<13), core.WithLogPages(1<<12), core.WithCkptPages(1<<13))
	if err != nil {
		t.Fatal(err)
	}
	tx := edb.Begin(nil)
	st, err := tx.BlobState("images", []byte("rotten.png"))
	tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WritePages(nil, st.Extents[0], 1, make([]byte, storage.DefaultPageSize)); err != nil {
		t.Fatal(err)
	}
	edb.CloseCommitter()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	err = run([]string{"-db", db, "fsck"}, nil, &bytes.Buffer{})
	if !errors.Is(err, core.ErrContentMismatch) || !strings.Contains(err.Error(), "rotten.png") {
		t.Fatalf("fsck of a corrupted file = %v, want a content mismatch naming rotten.png", err)
	}
}
