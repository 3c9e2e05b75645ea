//go:build lz4interop

package nxzip

// lz4interop_gen_test.go writes the LZ4 interop fixtures that
// lz4interop_test.go reads, with the lz4 command-line tool (v1.9.4; any
// build that writes legacy frames) as the independent implementation. It
// is behind a build tag, so no test run needs the tool:
//
//	go test -tags lz4interop -run TestGenerateLZ4Interop .
//
// or LZ4=/path/to/lz4 to name the binary. For every fixture input (see
// lz4Interop) it compresses the plaintext with the tool at -1, -9 and -12
// in the legacy frame (-l: magic 0x184C2102, then one LE32 block length
// and the raw block per 8 MiB) and keeps the block; then it frames this
// package's own block for the same plaintext, has the tool decode it,
// and, when the tool's output is the plaintext, records the block's
// SHA-256. MANIFEST holds every hash the test checks.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"nxzip/internal/lz4"
)

const lz4LegacyMagic = 0x184C2102

func TestGenerateLZ4Interop(t *testing.T) {
	tool := os.Getenv("LZ4")
	if tool == "" {
		tool = "lz4"
	}
	tmp := t.TempDir()
	run := func(args ...string) {
		t.Helper()
		if out, err := exec.Command(tool, args...).CombinedOutput(); err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
	}
	if err := os.MkdirAll(lz4InteropDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	manifest.WriteString("# LZ4 interop fixtures: written by lz4interop_gen_test.go, checked by lz4interop_test.go.\n")
	manifest.WriteString("# cli  <file> <kind> <size> <level> <sha256 of the block> <sha256 of the plaintext>\n")
	manifest.WriteString("# ours <kind> <size> <sha256 of lz4.Compress's block, which the tool decoded to the plaintext> <sha256 of the plaintext>\n")
	plainPath, framePath, outPath := filepath.Join(tmp, "plain"), filepath.Join(tmp, "frame"), filepath.Join(tmp, "out")
	for _, in := range lz4Interop() {
		plain := in.plain()
		if err := os.WriteFile(plainPath, plain, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, level := range []int{1, 9, 12} {
			run("-q", "-f", "-l", fmt.Sprintf("-%d", level), plainPath, framePath)
			frame, err := os.ReadFile(framePath)
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) < 8 || binary.LittleEndian.Uint32(frame) != lz4LegacyMagic ||
				int(binary.LittleEndian.Uint32(frame[4:])) != len(frame)-8 {
				t.Fatalf("%s -%d: not one legacy-framed block (%d bytes)", in.name(), level, len(frame))
			}
			blk := frame[8:]
			file := fmt.Sprintf("%s-l%d.lz4", in.name(), level)
			if err := os.WriteFile(filepath.Join(lz4InteropDir, file), blk, 0o644); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&manifest, "cli %s %s %d %d %x %x\n", file, in.kind, in.size, level, sha256.Sum256(blk), sha256.Sum256(plain))
		}
		ours := lz4.Compress(plain)
		frame := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, lz4LegacyMagic), uint32(len(ours)))
		if err := os.WriteFile(framePath, append(frame, ours...), 0o644); err != nil {
			t.Fatal(err)
		}
		run("-q", "-f", "-d", framePath, outPath)
		back, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, plain) {
			t.Fatalf("%s: the tool decodes our block to %d bytes that are not the plaintext's %d", in.name(), len(back), len(plain))
		}
		fmt.Fprintf(&manifest, "ours %s %d %x %x\n", in.kind, in.size, sha256.Sum256(ours), sha256.Sum256(plain))
	}
	if err := os.WriteFile(filepath.Join(lz4InteropDir, "MANIFEST"), manifest.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
