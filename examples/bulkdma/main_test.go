package main

import "testing"

// TestBulkDMA runs the example small and requires its built-in check to pass.
func TestBulkDMA(t *testing.T) {
	if err := run([]string{"-blocks", "24"}); err != nil {
		t.Fatal(err)
	}
}
