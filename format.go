package nxzip

// format.go is the format-routed face of the codec-plural API: one
// Format enum covering every wire format the stack produces (the three
// DEFLATE wraps plus the 842 and LZ4 block formats), a parse helper for
// CLIs, and the CompressFormat / DecompressFormat / Transcode entry
// points that route each request to the right codec path — including
// the one-round-trip transcode (decompress one format, recompress
// another) that the FCTranscode function code serves on capable
// devices.

import (
	"fmt"
	"strings"

	"nxzip/internal/nx"
)

// Format names a complete wire format: codec family plus framing.
type Format int

const (
	// FormatGzip is DEFLATE in RFC 1952 gzip framing (the default).
	FormatGzip Format = iota
	// FormatZlib is DEFLATE in RFC 1950 zlib framing.
	FormatZlib
	// FormatRaw is a bare RFC 1951 DEFLATE stream.
	FormatRaw
	// Format842 is the 842 block format (unframed).
	Format842
	// FormatLZ4 is the LZ4 block format (unframed).
	FormatLZ4
)

func (f Format) String() string {
	switch f {
	case FormatGzip:
		return "gzip"
	case FormatZlib:
		return "zlib"
	case FormatRaw:
		return "raw"
	case Format842:
		return "842"
	case FormatLZ4:
		return "lz4"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat maps a format name ("gzip", "zlib", "raw", "842", "lz4")
// to its Format — the -format flag parser of the CLIs.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gzip", "gz":
		return FormatGzip, nil
	case "zlib":
		return FormatZlib, nil
	case "raw", "deflate":
		return FormatRaw, nil
	case "842":
		return Format842, nil
	case "lz4":
		return FormatLZ4, nil
	}
	return 0, fmt.Errorf("nxzip: unknown format %q (want gzip, zlib, raw, 842 or lz4)", s)
}

// Codec returns the codec family behind the format.
func (f Format) Codec() nx.Codec {
	switch f {
	case Format842:
		return nx.Codec842
	case FormatLZ4:
		return nx.CodecLZ4
	}
	return nx.CodecDeflate
}

// wrap returns the DEFLATE framing of the format; block formats report
// WrapRaw (unused on their paths).
func (f Format) wrap() nx.Wrap {
	switch f {
	case FormatGzip:
		return nx.WrapGzip
	case FormatZlib:
		return nx.WrapZlib
	}
	return nx.WrapRaw
}

// CompressFormat compresses src into the named format through whichever
// devices advertise its codec, with per-codec software fallback.
func (a *Accelerator) CompressFormat(f Format, src []byte) ([]byte, *Metrics, error) {
	if f < FormatGzip || f > FormatLZ4 {
		return nil, nil, fmt.Errorf("nxzip: unknown format %v", f)
	}
	return a.compress(f, src)
}

// DecompressFormat decompresses a stream of the named format. maxOutput
// of 0 applies a size heuristic; pass an explicit bound for untrusted
// input.
func (a *Accelerator) DecompressFormat(f Format, src []byte, maxOutput int) ([]byte, *Metrics, error) {
	if f < FormatGzip || f > FormatLZ4 {
		return nil, nil, fmt.Errorf("nxzip: unknown format %v", f)
	}
	return a.decompress(f, src, maxOutput)
}

// Transcode converts src from one format to another in a single node
// round trip: the request dispatches to a device advertising both
// codecs, which decodes and re-encodes without the plaintext crossing
// back over the bus between passes (the FCTranscode function code).
// When no such device is healthy — or the node's hardware serves only
// one of the codecs — the software paths produce the result with
// Metrics.Degraded set. Transcoding between two framings of the same
// codec (gzip → zlib) is rejected: reframe instead.
func (a *Accelerator) Transcode(from, to Format, src []byte) ([]byte, *Metrics, error) {
	if from.Codec() == to.Codec() {
		return nil, nil, fmt.Errorf("nxzip: transcode %s → %s: same codec on both sides", from, to)
	}
	return a.doNew(a.nctx, op{kind: opTranscode, name: "transcode", format: from, to: to, src: src})
}

// CompressFormat compresses through the node's shared default view —
// the node-level face of the format-routed API, so callers that never
// open an explicit View still get capability-filtered dispatch across
// every device.
func (n *Node) CompressFormat(f Format, src []byte) ([]byte, *Metrics, error) {
	return n.defaultView().CompressFormat(f, src)
}

// DecompressFormat decompresses through the node's shared default view.
func (n *Node) DecompressFormat(f Format, src []byte, maxOutput int) ([]byte, *Metrics, error) {
	return n.defaultView().DecompressFormat(f, src, maxOutput)
}

// Transcode converts formats through the node's shared default view.
func (n *Node) Transcode(from, to Format, src []byte) ([]byte, *Metrics, error) {
	return n.defaultView().Transcode(from, to, src)
}

// CapableDevices returns the number of devices advertising every codec
// in need, regardless of health.
func (n *Node) CapableDevices(need nx.CodecSet) int { return n.topo.CapableCount(need) }
