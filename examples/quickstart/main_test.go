package main

import "testing"

// TestQuickstart runs the example small and requires its built-in check to pass.
func TestQuickstart(t *testing.T) {
	if err := run([]string{}); err != nil {
		t.Fatal(err)
	}
}
