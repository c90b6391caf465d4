package main

import "testing"

// TestPingpong runs the example small and requires its built-in check to pass.
func TestPingpong(t *testing.T) {
	if err := run([]string{"-rounds", "5"}); err != nil {
		t.Fatal(err)
	}
}
