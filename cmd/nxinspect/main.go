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

	size := stats.Bytes(int64(len(src)))
	if _, _, err := deflate.ParseGzipHeader(src); err == nil {
		fmt.Printf("framing: gzip, %s compressed\n", size)
		return inspectMembers(src, *maxOut)
	}
	raw, framing := src, "raw deflate"
	if body, _, err := deflate.ZlibUnwrap(src); err == nil {
		raw, framing = body, "zlib"
	}
	fmt.Printf("framing: %s, %s compressed\n", framing, size)
	infos, err := deflate.InspectStream(raw, *maxOut)
	if err != nil {
		return err
	}
	printMember(0, infos)
	return nil
}

// inspectMembers prints every member of a gzip stream. A member ends
// where its decode says — DecompressGzipTail's consumed count, trailer
// checked — and the walk ends at the first bytes that are not a member
// header.
func inspectMembers(src []byte, maxOut int) error {
	for member := 0; ; member++ {
		hlen, _, err := deflate.ParseGzipHeader(src)
		if err != nil {
			return nil
		}
		_, consumed, _, err := deflate.DecompressGzipTail(src, deflate.InflateOptions{MaxOutput: maxOut})
		if err != nil {
			return err
		}
		infos, err := deflate.InspectStream(src[hlen:consumed], maxOut)
		if err != nil {
			return err
		}
		printMember(member, infos)
		src = src[consumed:]
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
