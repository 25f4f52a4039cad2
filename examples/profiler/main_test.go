package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGoldenBytes pins the example's output (both profiler reports)
// to committed bytes. Regenerate with:
//
//	go run ./examples/profiler > examples/profiler/testdata/golden.txt
func TestReportGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
