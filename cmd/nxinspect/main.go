// Command nxinspect dumps the block structure of a DEFLATE / gzip / zlib
// stream: block types, header and payload bit costs, symbol mix, and
// per-block compression ratio. It is the forensic companion to nxzip —
// "why is this stream the size it is?".
//
// With -postmortem it instead reads a flight-recorder postmortem bundle
// (written by EnableFlightRecorder when the SLO engine flips unhealthy)
// and renders the incident report; -req narrows to one request's full
// chained history (digest, per-attempt spans, correlated events).
//
// Usage:
//
//	nxinspect file.gz
//	nxzip corpus.txt | nxinspect
//	nxinspect -postmortem /var/tmp/nx-postmortems            # newest bundle in dir
//	nxinspect -postmortem postmortem-0...1.jsonl -req 42     # one request
//	nxinspect -postmortem postmortem-0...1.jsonl -tenant 3   # one tenant's rows
//	nxinspect -postmortem http://127.0.0.1:8090/debug/postmortems/postmortem-0...1.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nxzip/internal/deflate"
	"nxzip/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "nxinspect: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	maxOut := flag.Int("max", 1<<30, "decompressed size bound")
	postmortem := flag.String("postmortem", "", "read a postmortem bundle (file, directory of bundles, '-', or URL) instead of a stream")
	reqID := flag.Uint64("req", 0, "with -postmortem: narrow the report to one RequestID")
	tenant := flag.Uint64("tenant", 0, "with -postmortem: narrow digests, spans and events to one tenant (view identity)")
	flag.Parse()

	if *postmortem != "" {
		return runPostmortem(*postmortem, *reqID, *tenant)
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	src, err := io.ReadAll(in)
	if err != nil {
		return err
	}

	raw, framing, err := unframe(src)
	if err != nil {
		return err
	}
	fmt.Printf("framing: %s, %s compressed\n", framing, stats.Bytes(int64(len(src))))

	for member := 0; ; member++ {
		infos, err := deflate.InspectStream(raw, *maxOut)
		if err != nil {
			return err
		}
		printMember(member, infos)
		if framing != "gzip" {
			return nil
		}
		rest, err := nextGzipMember(src, member+1)
		if err != nil || rest == nil {
			return nil
		}
		raw = rest
	}
}

// unframe strips gzip/zlib framing when present, returning the first
// member's payload for gzip (the caller iterates further members).
func unframe(src []byte) ([]byte, string, error) {
	if len(src) >= 2 && src[0] == 0x1F && src[1] == 0x8B {
		first, err := nextGzipMember(src, 0)
		if err != nil {
			return nil, "", err
		}
		if first == nil {
			return nil, "", fmt.Errorf("no gzip member found")
		}
		return first, "gzip", nil
	}
	if body, _, err := deflate.ZlibUnwrap(src); err == nil {
		return body, "zlib", nil
	}
	return src, "raw deflate", nil
}

// nextGzipMember returns the payload of member index n, or nil when the
// stream has fewer members.
func nextGzipMember(src []byte, n int) ([]byte, error) {
	rest := src
	for i := 0; ; i++ {
		hlen, _, err := deflate.ParseGzipHeader(rest)
		if err != nil {
			return nil, nil // no more members
		}
		_, consumed, err := deflate.DecompressTail(rest[hlen:], deflate.InflateOptions{})
		if err != nil {
			return nil, err
		}
		if i == n {
			return rest[hlen : hlen+consumed], nil
		}
		end := hlen + consumed + 8
		if end >= len(rest) {
			return nil, nil
		}
		rest = rest[end:]
	}
}

func printMember(member int, infos []deflate.BlockInfo) {
	fmt.Printf("member %d: %d block(s)\n", member, len(infos))
	fmt.Printf("  %-3s %-8s %-6s %10s %12s %9s %9s %11s %8s\n",
		"#", "type", "final", "hdr bits", "data bits", "literals", "matches", "match bytes", "ratio")
	for _, b := range infos {
		inBits := b.HeaderBits + b.DataBits
		ratio := float64(b.OutBytes*8) / float64(max(inBits, 1))
		fmt.Printf("  %-3d %-8s %-6v %10d %12d %9d %9d %11d %7.2fx\n",
			b.Index, b.TypeName(), b.Final, b.HeaderBits, b.DataBits,
			b.Literals, b.Matches, b.MatchBytes, ratio)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
