package main

import "testing"

// TestFailover runs the example small and requires its built-in check to pass.
func TestFailover(t *testing.T) {
	if err := run([]string{"-messages", "50"}); err != nil {
		t.Fatal(err)
	}
}
