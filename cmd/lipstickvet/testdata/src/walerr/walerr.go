// Package store (fixture) seeds silently-discarded durability errors for
// the walerr analyzer fixture tests.
package store

import "os"

// flushOK propagates both errors.
func flushOK(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// flushBad drops both.
func flushBad(f *os.File) {
	f.Sync()  // want `error result of Sync discarded`
	f.Close() // want `error result of Close discarded`
}

// renameBad drops the os.Rename error.
func renameBad(a, b string) {
	os.Rename(a, b) // want `error result of Rename discarded`
}

// truncateBad drops the error of the call that cuts a segment's zero
// tail.
func truncateBad(f *os.File) {
	f.Truncate(0)       // want `error result of Truncate discarded`
	os.Truncate("x", 0) // want `error result of Truncate discarded`
	defer f.Truncate(0) // want `error result of Truncate discarded behind defer`
}

// deferBad hides the discard behind a defer.
func deferBad(f *os.File) {
	defer f.Close() // want `error result of Close discarded behind defer`
}

// acknowledged makes the discard explicit: allowed.
func acknowledged(f *os.File) {
	_ = f.Close()
}
