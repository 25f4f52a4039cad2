package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestProfileRun(t *testing.T) {
	if err := run([]string{"-app", "grp", "-nodes", "2", "-variant", "initial",
		"-top", "3", "-affinity", "-timeline"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestProfileGoldenBytes pins the full profiler report (every analysis,
// the affinity suggestions and the timeline) to committed bytes. Regenerate
// with:
//
//	go run ./cmd/dexprof -app kmn -nodes 4 -variant initial -top 5 -affinity -timeline > cmd/dexprof/testdata/golden.txt
func TestProfileGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-app", "kmn", "-nodes", "4", "-variant", "initial",
		"-top", "5", "-affinity", "-timeline"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}

func TestProfileErrors(t *testing.T) {
	if err := run([]string{"-app", "nope"}, io.Discard); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := run([]string{"-app", "grp", "-variant", "bogus"}, io.Discard); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if err := run([]string{"-app", "grp", "-nodes", "-1"}, io.Discard); err == nil {
		t.Fatal("negative node count accepted")
	}
	if err := run([]string{"-app", "grp", "-size", "bogus"}, io.Discard); err == nil {
		t.Fatal("unknown size accepted")
	}
}
