//go:build !race

// Package testrace tells tests whether the race detector is on, so the
// allocation-budget tests (testing.AllocsPerRun) can skip under -race,
// whose instrumentation allocates.
package testrace

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
