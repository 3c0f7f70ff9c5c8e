//go:build race

package testrace

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
