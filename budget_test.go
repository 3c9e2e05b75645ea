package nxzip

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/nx"
)

// A decompression budget is a limit, not work: the engine translates the
// target pages it writes, so the model clock of a decode cannot depend on
// how much room the caller left above the answer.

// budgetRun decodes src once on a fresh view under one budget (0: the
// path's default) and reports the plaintext, the accounting and how many
// pages the NMMU translated for it.
type budgetRun func(a *Accelerator, src []byte, budget int) ([]byte, Metrics, error)

var budgetPaths = []struct {
	name string
	run  budgetRun
}{
	{"DecompressGzip", func(a *Accelerator, src []byte, budget int) ([]byte, Metrics, error) {
		out, m, err := a.decompress(FormatGzip, src, budget)
		if err != nil {
			return nil, Metrics{}, err
		}
		return out, *m, nil
	}},
	// The Into path's budget is max(default, cap(dst)): room is how a
	// caller raises it.
	{"DecompressGzipInto", func(a *Accelerator, src []byte, budget int) ([]byte, Metrics, error) {
		var m Metrics
		out, err := a.DecompressGzipInto(make([]byte, 0, budget), src, &m)
		return out, m, err
	}},
	// One-shot members carry no length hint, so this is the serial member
	// loop: opMember, its target the first step of the grow ladder.
	{"Reader", func(a *Accelerator, src []byte, budget int) ([]byte, Metrics, error) {
		r := a.NewReader(bytes.NewReader(src))
		r.MaxOutput = budget
		out, err := io.ReadAll(r)
		return out, r.Stats, err
	}},
}

func runOnFreshView(t *testing.T, cfg Config, run budgetRun, src []byte, budget int) (out []byte, m Metrics, pages int64, err error) {
	t.Helper()
	a := Open(cfg)
	defer a.Close()
	out, m, err = run(a, src, budget)
	st := a.MMU().Stats()
	return out, m, st.Hits + st.Misses, err
}

func TestCyclesDoNotDependOnBudget(t *testing.T) {
	enc := Open(P9())
	defer enc.Close()
	for _, tc := range []struct {
		path     int
		size     int
		budgets  []int // beside the default
		maxPages int64 // translated per decode: the source's and the reached target's
	}{
		{0, 1 << 20, []int{1 << 20, 4 << 20}, 24},
		{1, 4 << 10, []int{4 << 20, 16 << 20}, 2},
		{2, 1 << 20, []int{1 << 20, 4 << 20}, 24},
	} {
		path := budgetPaths[tc.path]
		plain := corpus.Generate(corpus.Text, tc.size, 23)
		gz, _, err := enc.CompressGzip(plain)
		if err != nil {
			t.Fatal(err)
		}
		_, want, wantPages, err := runOnFreshView(t, P9(), path.run, gz, 0)
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if wantPages > tc.maxPages {
			t.Errorf("%s of %d bytes under the default budget translated %d pages, want at most %d", path.name, tc.size, wantPages, tc.maxPages)
		}
		for _, budget := range tc.budgets {
			out, m, pages, err := runOnFreshView(t, P9(), path.run, gz, budget)
			if err != nil || !bytes.Equal(out, plain) {
				t.Fatalf("%s budget %d: %v, %d bytes", path.name, budget, err, len(out))
			}
			if m.DeviceCycles != want.DeviceCycles || pages != wantPages || m.CRC32 != want.CRC32 {
				t.Errorf("%s budget %d: %d cycles over %d pages, crc %08x; the default budget: %d cycles over %d pages, crc %08x",
					path.name, budget, m.DeviceCycles, pages, m.CRC32, want.DeviceCycles, wantPages, want.CRC32)
			}
		}
	}
}

// FuzzBudgetDoesNotChangeTheAnswer: any payload through any one-shot
// decode under any budget. Whenever the output fits, the bytes, the CRC
// and the device cycles are the exact-budget run's; when it does not, the
// answer is target-space — never different bytes.
func FuzzBudgetDoesNotChangeTheAnswer(f *testing.F) {
	type codec struct {
		name       string
		compress   func(*Accelerator, []byte) ([]byte, *Metrics, error)
		decompress func(*Accelerator, []byte, int) ([]byte, *Metrics, error)
	}
	deflated := func(format Format) codec {
		return codec{format.String(),
			func(a *Accelerator, p []byte) ([]byte, *Metrics, error) { return a.compress(format, p) },
			func(a *Accelerator, p []byte, budget int) ([]byte, *Metrics, error) {
				return a.decompress(format, p, budget)
			}}
	}
	codecs := []codec{
		deflated(FormatGzip), deflated(FormatZlib), deflated(FormatRaw),
		{"842", (*Accelerator).Compress842, (*Accelerator).Decompress842},
		{"lz4", (*Accelerator).CompressLZ4, (*Accelerator).DecompressLZ4},
	}
	// The sizes and budgets of internal/nx's TestTranslateFollowsOutput:
	// short by a byte, exact, a page more, 4x, the 256x-input bomb budget.
	for _, size := range []int{256, 4 << 10, 64 << 10} {
		data := corpus.Generate(corpus.Text, size, 12)
		for c := range codecs {
			for _, budget := range []int{size - 1, size, size + 64<<10, 4 * size, 256 * size} {
				f.Add(data, uint8(c), uint32(budget), c%2 == 0)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, which uint8, budget32 uint32, z15 bool) {
		if len(data) == 0 || len(data) > 1<<20 {
			return
		}
		c := codecs[int(which)%len(codecs)]
		cfg := P9()
		if z15 {
			cfg = Z15()
		}
		budget := max(1, int(budget32%(64<<20)))
		name := fmt.Sprintf("%s/%s %d bytes under %d", cfg.Device.Engine.Pipeline.Name, c.name, len(data), budget)

		// Every run on a view of its own: cold caches, so cycles compare.
		decode := func(src []byte, budget int) ([]byte, *Metrics, error) {
			a := Open(cfg)
			defer a.Close()
			return c.decompress(a, src, budget)
		}
		enc := Open(cfg)
		comp, _, err := c.compress(enc, data)
		enc.Close()
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		want, wantM, err := decode(comp, len(data))
		if err != nil || !bytes.Equal(want, data) {
			t.Fatalf("%s: the exact budget: %v, %d bytes", name, err, len(want))
		}
		got, m, err := decode(comp, budget)
		if budget < len(data) {
			if !errors.Is(err, nx.ErrTargetSpace) || got != nil {
				t.Fatalf("%s: %d bytes and %v, want target-space", name, len(got), err)
			}
			return
		}
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: %v, %d bytes", name, err, len(got))
		}
		if m.CRC32 != wantM.CRC32 || m.DeviceCycles != wantM.DeviceCycles {
			t.Fatalf("%s: crc %08x in %d cycles, the exact budget's %08x in %d", name, m.CRC32, m.DeviceCycles, wantM.CRC32, wantM.DeviceCycles)
		}
	})
}
