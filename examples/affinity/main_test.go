package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportGoldenBytes pins the example's output to committed bytes and
// checks the headline result: relocating the consumers next to their data
// cuts read faults from 697 to 109 and runs 1.86x faster. Regenerate with:
//
//	go run ./examples/affinity > examples/affinity/testdata/golden.txt
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
	for _, s := range []string{"697 read faults", "109 read faults", "1.86x"} {
		if !strings.Contains(got.String(), s) {
			t.Errorf("output lacks %q", s)
		}
	}
}
