package nxzip

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"testing"

	"nxzip/internal/corpus"
)

// FuzzCompressInflatesWithFlate: any bytes through either accelerator,
// under every table mode and framing, from two goroutines sharing one
// view or on two views of it (two work-area keys). compress/flate (under
// compress/gzip and compress/zlib for the framed ones) inflates each
// output to the input, and the two outputs are equal: a compression is a
// function of its bytes, whichever work area it was computed in and whose
// key that area was filed under, whatever the neighbour was doing and
// whichever geometry used that area last — the views live as long as the
// target, so an execution on one accelerator follows one on the other.
// ROADMAP item 4's one-shot clause, encode side.
func FuzzCompressInflatesWithFlate(f *testing.F) {
	modes := []TableMode{TableFixed, TableDynamic, TableCanned}
	formats := []Format{FormatGzip, FormatZlib, FormatRaw}
	var views [2][3][2]*Accelerator // device, table mode, view of one node
	for d, cfg := range []Config{P9(), Z15()} {
		for m, mode := range modes {
			cfg.TableMode = mode
			a := Open(cfg)
			twin := a.root.View()
			twin.cfg = cfg
			for _, v := range []*Accelerator{a, twin} {
				f.Cleanup(v.Close)
				if err := v.TrainTable(corpus.Generate(corpus.Text, 32<<10, 12)); err != nil {
					f.Fatal(err)
				}
			}
			views[d][m] = [2]*Accelerator{a, twin}
		}
	}
	inflate := func(format Format, comp []byte) ([]byte, error) {
		var (
			r   io.Reader = flate.NewReader(bytes.NewReader(comp))
			err error
		)
		switch format {
		case FormatGzip:
			r, err = gzip.NewReader(bytes.NewReader(comp))
		case FormatZlib:
			r, err = zlib.NewReader(bytes.NewReader(comp))
		}
		if err != nil {
			return nil, err
		}
		return io.ReadAll(r)
	}
	for i, kind := range []corpus.Kind{corpus.JSONLogs, corpus.Text, corpus.Binary, corpus.Random, corpus.Zeros} {
		for _, size := range []int{1, 300, 4 << 10, 70 << 10} {
			f.Add(corpus.Generate(kind, size, 12), uint8(i+size), size%3 == 0, size%2 == 0)
		}
	}
	f.Add([]byte{}, uint8(0), true, true)
	f.Fuzz(func(t *testing.T, data []byte, which uint8, z15, twoViews bool) {
		if len(data) > 1<<20 {
			return
		}
		d := 0
		if z15 {
			d = 1
		}
		mode, format := int(which)%len(modes), formats[int(which)/len(modes)%len(formats)]
		on := views[d][mode]
		if !twoViews {
			on[1] = on[0]
		}
		name := fmt.Sprintf("%s/%v/%s %d bytes (two views: %v)", on[0].cfg.Device.Engine.Pipeline.Name, modes[mode], format, len(data), twoViews)

		var (
			comp [2][]byte
			errs [2]error
			done = make(chan int, len(comp))
		)
		for g := range comp {
			go func() {
				comp[g], _, errs[g] = on[g].compress(format, data)
				done <- g
			}()
		}
		for range comp {
			g := <-done
			if errs[g] != nil {
				t.Fatalf("%s: %v", name, errs[g])
			}
			if plain, err := inflate(format, comp[g]); err != nil || !bytes.Equal(plain, data) {
				t.Fatalf("%s: compress/flate inflates the output to %d bytes, %v", name, len(plain), err)
			}
		}
		if !bytes.Equal(comp[0], comp[1]) {
			t.Fatalf("%s: two goroutines compressed the same bytes to %d and %d different bytes", name, len(comp[0]), len(comp[1]))
		}
	})
}
