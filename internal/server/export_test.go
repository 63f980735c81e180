package server

import "repro/internal/poller"

// UseFallbackPoller binds the newPoller seam to poller.NewFallback for the
// external tests, which cannot reach it, and returns the undo.
func UseFallbackPoller() (restore func()) {
	old := newPoller
	newPoller = poller.NewFallback
	return func() { newPoller = old }
}
