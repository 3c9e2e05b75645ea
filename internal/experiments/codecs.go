package experiments

// E23 is the codec shoot-out behind the codec-plural API: the same
// corpus mix through all three engine families — DEFLATE (the paper's
// flagship), 842 (z15 memory expansion) and LZ4 (byte-aligned,
// throughput-first) — measuring ratio, modeled compress/decompress
// rates and engine cycles per input byte. The table quantifies the
// trade the capability-advertising dispatch layer lets one node offer:
// DEFLATE buys ratio with the full LZ/Huffman pipeline, LZ4 buys ingest
// rate with two match lanes and no entropy stage, 842 sits between on
// its fixed templates.

import (
	"fmt"
	"time"

	"nxzip"
	"nxzip/internal/corpus"
)

// codecShootoutFormats pairs each codec family with the wire format the
// sweep drives it through.
var codecShootoutFormats = []nxzip.Format{nxzip.FormatGzip, nxzip.Format842, nxzip.FormatLZ4}

// E23CodecShootout runs the sweep on one P9 device (the zero capability
// set: every codec). Every codec sees the identical corpus mix — the nine
// ratio kinds at 1 MiB each — through the format-routed API, so the
// numbers compare engines, not data.
func E23CodecShootout() *Table {
	t := &Table{
		ID:     "E23",
		Title:  "codec shoot-out: one API, three engines (P9, 1 MiB x 9 kinds)",
		Header: []string{"codec", "ratio", "compress", "decompress", "cycles/byte"},
	}
	acc := nxzip.Open(nxzip.P9())
	defer acc.Close()
	const size = 1 << 20

	srcs := make([][]byte, len(ratioKinds))
	for i, k := range ratioKinds {
		srcs[i] = corpus.Generate(k, size, Seed)
	}

	for _, f := range codecShootoutFormats {
		var (
			in, out    int
			compCycles int64
			compTime   time.Duration
			decTime    time.Duration
		)
		for _, src := range srcs {
			enc, m, err := acc.CompressFormat(f, src)
			if err != nil {
				panic(fmt.Sprintf("E23 %s compress: %v", f, err))
			}
			if m.Degraded {
				panic(fmt.Sprintf("E23 %s compress degraded on a healthy device", f))
			}
			in += len(src)
			out += len(enc)
			compCycles += m.DeviceCycles
			compTime += m.DeviceTime

			plain, dm, err := acc.DecompressFormat(f, enc, len(src)+64)
			if err != nil || len(plain) != len(src) {
				panic(fmt.Sprintf("E23 %s decompress: %v", f, err))
			}
			decTime += dm.DeviceTime
		}
		t.AddRow(f.Codec().String(), f2(ratioOf(in, out)),
			gbs(float64(in)/compTime.Seconds()), gbs(float64(in)/decTime.Seconds()),
			f2(float64(compCycles)/float64(in)))
	}
	t.Note("identical corpus per codec: the nine E1 kinds at 1 MiB; rates from the modeled device timeline")
	t.Note("deflate = full LZ/Huffman pipeline (DHT); lz4 = two byte-aligned match lanes, no entropy stage; 842 = fixed templates")
	return t
}
