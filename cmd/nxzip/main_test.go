package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"nxzip/internal/corpus"
)

// TestDevicesRoundTrip: -devices N compresses through ParallelWriter and,
// with -d, decodes through the parallel Reader; what lies between is plain
// gzip, and -d -devices takes gzip it did not write.
func TestDevicesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	src := corpus.Generate(corpus.JSONLogs, 300<<10, 12)
	if err := os.WriteFile(path("plain"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	mustRun := func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("nxzip %v: %v", args, err)
		}
	}
	mustEqual := func(name string) {
		t.Helper()
		if got, err := os.ReadFile(path(name)); err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%s does not hold the input (err %v)", name, err)
		}
	}

	mustRun("-devices", "3", "-chunk", "65536", "-o", path("members.gz"), path("plain"))
	gz, err := os.ReadFile(path("members.gz"))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := io.ReadAll(zr); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("compress/gzip does not inflate -devices output: %v", err)
	}
	mustRun("-d", "-devices", "3", "-o", path("parallel.out"), path("members.gz"))
	mustEqual("parallel.out")
	mustRun("-d", "-o", path("serial.out"), path("members.gz"))
	mustEqual("serial.out")

	var std bytes.Buffer
	zw := gzip.NewWriter(&std)
	zw.Write(src)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path("std.gz"), std.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mustRun("-d", "-devices", "3", "-o", path("std.out"), path("std.gz"))
	mustEqual("std.out")
}
