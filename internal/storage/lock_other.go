//go:build !unix

package storage

import "os"

// lockFile is a no-op where flock is unavailable.
func lockFile(*os.File) error { return nil }
