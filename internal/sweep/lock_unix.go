//go:build unix

package sweep

import (
	"os"
	"syscall"
)

// locksWork reports that tryLock tells a live writer's segment apart.
const locksWork = true

// tryLock takes f's advisory exclusive lock (flock) without waiting. It
// fails while another open file description holds the lock, even in the
// same process; a lock already held through f itself succeeds.
func tryLock(f *os.File) bool {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}

// waitLock takes f's advisory exclusive lock, waiting for it.
func waitLock(f *os.File) error { return syscall.Flock(int(f.Fd()), syscall.LOCK_EX) }

// unlock releases f's advisory lock.
func unlock(f *os.File) { syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }
