package main

import "testing"

// TestAllreduce runs the example small and requires its built-in check to pass.
func TestAllreduce(t *testing.T) {
	if err := run([]string{"-rounds", "2"}); err != nil {
		t.Fatal(err)
	}
}
