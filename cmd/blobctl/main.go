// Command blobctl is a small CLI over the engine: create a database file,
// store files as BLOBs, read them back, list and delete them. The database
// persists in a single file that every invocation opens in place and
// recovers from, so blobctl doubles as a live demonstration of the §III-C
// crash-consistency protocol: a put is durable once blobctl acknowledges
// it, whatever happens to the process afterwards.
//
// Usage:
//
//	blobctl -db app.blobdb init
//	blobctl -db app.blobdb put images xray1.png < xray1.png
//	blobctl -db app.blobdb get images xray1.png > copy.png
//	blobctl -db app.blobdb ls images
//	blobctl -db app.blobdb rm images xray1.png
//	blobctl -db app.blobdb stat images xray1.png
//	blobctl fsck app.blobdb
//
// Opening a database recovers it, hashing only the Blob States recovery
// cannot prove landed. fsck hashes every stored BLOB against its SHA-256
// and exits non-zero naming the first key whose content does not match —
// the check that finds out-of-band corruption (bit rot, a stray write to
// the file), which startup no longer looks for.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"blobdb/internal/blob"
	"blobdb/internal/core"
	"blobdb/internal/simtime"
	"blobdb/internal/storage"
)

const devPages = 1 << 16 // 256MB database file

const usage = `usage: blobctl [-db file] <command>
  init                   create the database
  put <relation> <key>   store stdin as a BLOB
  get <relation> <key>   write the BLOB to stdout
  ls <relation>          list keys and sizes
  rm <relation> <key>    delete a BLOB
  stat <relation> <key>  show the Blob State
  fsck [file]            hash every BLOB against its SHA-256 (file: instead of -db)`

// errUsage reports a malformed command line.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, usage)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "blobctl:", err)
		os.Exit(1)
	}
}

// run executes one blobctl invocation against the database file named by
// -db, operating on it in place.
func run(args []string, stdin io.Reader, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("blobctl", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	dbPath := fs.String("db", "blobctl.blobdb", "database file")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	args = fs.Args()
	if len(args) == 0 {
		return errUsage
	}
	rel, key, err := relKey(args)
	if err != nil {
		return err
	}
	if args[0] == "fsck" && rel != "" {
		*dbPath = rel
	}

	dev, err := storage.OpenFileDevice(*dbPath, storage.DefaultPageSize, devPages, simtime.DefaultNVMe())
	if err != nil {
		return err
	}
	defer func() {
		if cerr := dev.Close(); err == nil {
			err = cerr
		}
	}()
	db, rep, err := core.RecoverDevice(dev, nil,
		core.WithPoolPages(1<<13), core.WithLogPages(1<<12), core.WithCkptPages(1<<13))
	if err != nil {
		return err
	}
	if rep.FromCheckpoint || rep.CommittedTxns > 0 {
		fmt.Fprintf(os.Stderr, "recovered: %d committed txns, %d blobs validated, %d failed\n",
			rep.CommittedTxns, rep.ValidatedBlobs, rep.FailedBlobs)
	}

	switch args[0] {
	case "fsck":
		if err := db.VerifyContent(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "ok: every blob matches its SHA-256 (recovery hashed %d, trusted %d as landed)\n",
			rep.HashedBlobs, rep.TrustedBlobs)
		return nil
	case "init":
		fmt.Fprintln(os.Stderr, "initialized", *dbPath)
	case "put":
		if _, err := db.Relation(rel); err != nil {
			if _, err := db.CreateRelation(rel); err != nil {
				return err
			}
		}
		// Stream stdin straight into the engine: blobctl never holds more
		// than one extent of the input in memory, so `blobctl put` handles
		// inputs far larger than RAM (up to the database size).
		tx := db.Begin(nil)
		bw, err := tx.CreateBlob(tx.Context(), rel, []byte(key))
		if err != nil {
			tx.Abort()
			return err
		}
		n, err := bw.ReadFrom(stdin)
		if err == nil {
			err = bw.Close()
		} else {
			bw.Abort()
		}
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stored %s/%s (%d bytes)\n", rel, key, n)
	case "get":
		tx := db.Begin(nil)
		defer tx.Commit()
		content, err := tx.ReadBlobBytes(rel, []byte(key))
		if err != nil {
			return err
		}
		_, err = stdout.Write(content)
		return err
	case "ls":
		tx := db.Begin(nil)
		defer tx.Commit()
		return tx.Scan(rel, nil, func(k, inline []byte, st *blob.State) bool {
			size := int64(len(inline))
			if st != nil {
				size = int64(st.Size)
			}
			fmt.Fprintf(stdout, "%10d  %s\n", size, k)
			return true
		})
	case "rm":
		tx := db.Begin(nil)
		if err := tx.DeleteBlob(rel, []byte(key)); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	case "stat":
		tx := db.Begin(nil)
		defer tx.Commit()
		st, err := tx.BlobState(rel, []byte(key))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "size:    %d bytes\nextents: %d (+tail: %v)\nsha256:  %x\n",
			st.Size, st.NumExtents(), st.HasTail(), st.SHA256)
		return nil
	}

	// A mutating command checkpoints, so the file's image is
	// self-contained and the next invocation recovers from it quickly.
	return db.WAL().Checkpoint(nil)
}

// relKey validates the command's arity and returns its operands.
func relKey(args []string) (rel, key string, err error) {
	want := map[string]int{"init": 1, "put": 3, "get": 3, "ls": 2, "rm": 3, "stat": 3, "fsck": 1}
	n, ok := want[args[0]]
	if !ok || len(args) < n {
		return "", "", errUsage
	}
	args = append(args, "", "")
	return args[1], args[2], nil
}
