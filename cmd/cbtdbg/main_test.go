package main

import "testing"

// TestRunQuickScale drives the quick-scale pass end to end. The one-bank
// geometry must also turn bank grouping off, or building the address map
// panics before the first activation.
func TestRunQuickScale(t *testing.T) {
	run(1, 512)
}
