package main

import "testing"

// TestTelemetry runs the example small and requires its built-in check to pass.
func TestTelemetry(t *testing.T) {
	if err := run([]string{"-frames", "100"}); err != nil {
		t.Fatal(err)
	}
}
