//go:build race

// Package race reports whether the binary was built with the race detector,
// whose instrumentation allocates: allocation-ceiling tests skip under it.
package race

// Enabled is true under -race.
const Enabled = true
