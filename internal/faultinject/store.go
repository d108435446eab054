package faultinject

// StoreFaults adapts an Injector to sweep.Store's blob-I/O hook
// (sweep.BlobFaults): each read and write is one operation on the
// "store" scope. Only the payload kinds act here — Corrupt and Truncate
// damage the blob bytes (driving the store's checksum/quarantine
// machinery); transport-only kinds pass through untouched.
type StoreFaults struct {
	// Injector supplies decisions; required.
	Injector *Injector
}

// OnRead implements sweep.BlobFaults.
func (s *StoreFaults) OnRead(key string, data []byte) []byte {
	return Mangle(s.Injector.Next("store"), data)
}

// OnWrite implements sweep.BlobFaults.
func (s *StoreFaults) OnWrite(key string, data []byte) []byte {
	return Mangle(s.Injector.Next("store"), data)
}
