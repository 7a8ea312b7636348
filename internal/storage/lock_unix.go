//go:build unix

package storage

import (
	"errors"
	"os"
	"syscall"
)

// lockFile takes a non-blocking exclusive flock on f. A second open of the
// same image — another process, or this one through a second descriptor —
// fails with ErrDeviceLocked instead of writing the image concurrently.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return ErrDeviceLocked
	}
	return err
}
