//go:build !unix

package sweep

import "os"

// Without flock every lock succeeds: GC then claims every segment, which
// is safe only while a single process writes the store.

func tryLock(*os.File) bool   { return true }
func waitLock(*os.File) error { return nil }
func unlock(*os.File)         {}

// locksWork is false: a free lock says nothing about a segment's writer,
// so readers never take a segment for sealed.
const locksWork = false
