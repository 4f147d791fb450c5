//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package disk

import (
	"errors"
	"syscall"
)

// lock takes the file's exclusive advisory lock without waiting: a
// lock held through another open file, this process's or another's,
// is ErrLocked.
func (o osFile) lock() error {
	err := syscall.Flock(int(o.f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return ErrLocked
	}
	return err
}
