// Command nxzip is a gzip-like CLI driven by the accelerator model: it
// compresses/decompresses files or stdin through the simulated POWER9 or
// z15 engine and reports the device-side accounting (what the job *would*
// have cost on the accelerator), alongside wall-clock host time.
//
// Usage:
//
//	nxzip [-d] [-chip p9|z15] [-fht] [-sw level] [-format gzip|zlib|raw|842|lz4] [-devices n] [-dispatch policy] [-metrics] [-trace out.json] [-events out.jsonl] [-o out] [file]
//
// Examples:
//
//	nxzip -o corpus.gz corpus.txt        # compress via simulated P9 NX
//	nxzip -d -o corpus.txt corpus.gz     # decompress
//	nxzip -chip z15 -v corpus.txt        # z15 model, verbose accounting
//	nxzip -sw 6 corpus.txt               # software baseline instead
//	nxzip -metrics corpus.txt            # dump the device metrics snapshot
//	nxzip -trace t.json -stream corpus.txt  # Chrome trace of every request
//	nxzip -devices 4 -v corpus.txt       # shard chunks across a 4-device node
//	nxzip -d -devices 4 -o corpus.txt corpus.gz   # decode its members four at a time
//	nxzip -devices 4 -dispatch least-loaded corpus.txt
//	nxzip -devices 4 -chaos heavy -v corpus.txt   # inject faults; watch recovery
//	nxzip -devices 4 -chaos heavy -events ev.jsonl corpus.txt  # log quarantine/failover events
//	nxzip -chaos crc-error=1 -v corpus.txt        # kill the device: software fallback
//	nxzip -format lz4 -v corpus.txt               # LZ4 block through codec dispatch
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nxzip"
	"nxzip/internal/faultinject"
	"nxzip/internal/nx"
	"nxzip/internal/stats"
	"nxzip/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "nxzip: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nxzip", flag.ExitOnError)
	var (
		decompress = fs.Bool("d", false, "decompress")
		chip       = fs.String("chip", "p9", "accelerator model: p9 or z15")
		fht        = fs.Bool("fht", false, "use the fixed Huffman table function code")
		swLevel    = fs.Int("sw", 0, "bypass the accelerator; software codec at this level (1..9)")
		format     = fs.String("format", "gzip", "stream format: gzip, zlib, raw, 842 or lz4")
		stream     = fs.Bool("stream", false, "single-member streaming mode with 32 KiB history carry")
		chunk      = fs.Int("chunk", 1<<20, "streaming request size in bytes")
		outPath    = fs.String("o", "", "output file (default stdout)")
		verbose    = fs.Bool("v", false, "print device accounting to stderr")
		dumpMet    = fs.Bool("metrics", false, "print the device metrics snapshot to stderr")
		tracePath  = fs.String("trace", "", "write a Chrome trace_event JSON of every request to this file")
		eventsPath = fs.String("events", "", "write control-plane events (quarantine, failover, fallback, ...) as JSON lines to this file")
		devices    = fs.Int("devices", 1, "device count: >1 opens a multi-accelerator node and shards compression (with -d: decodes members) across it")
		dispatch   = fs.String("dispatch", "", "node dispatch policy: round-robin (default), least-loaded, affinity")
		chaos      = fs.String("chaos", "", "inject faults: a named profile (mild, heavy, fault-storm, ...) or \"class=rate,...\"")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here
	if *devices < 1 {
		return fmt.Errorf("-devices %d: need at least one device", *devices)
	}
	ff, err := nxzip.ParseFormat(*format)
	if err != nil {
		return err
	}
	var chaosProfile faultinject.Profile
	if *chaos != "" {
		var perr error
		if chaosProfile, perr = faultinject.ParseProfile(*chaos); perr != nil {
			return perr
		}
	}

	in := os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
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

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	start := time.Now()
	var result []byte
	var metrics *nxzip.Metrics

	// open wires the observability flags into whichever accelerator the
	// mode below decides to use. The pure-software paths (-sw with the
	// gzip format) never open one, so those flags would be silently
	// inert — warn up front instead of leaving empty outputs unexplained.
	if *swLevel > 0 && ff == nxzip.FormatGzip && (*dumpMet || *tracePath != "" || *eventsPath != "") {
		fmt.Fprintln(os.Stderr, "nxzip: warning: -metrics, -trace and -events have no effect with -sw: the software-only path opens no accelerator")
	}
	var acc *nxzip.Accelerator
	var node *nxzip.Node
	var traceFile *os.File
	var eventsFile *os.File
	var eventLog *telemetry.EventLog
	open := func(cfg nxzip.Config) (*nxzip.Accelerator, error) {
		// -chaos needs the node path even for one device: injectors install
		// through the node, and so do failover and software fallback.
		if *devices > 1 || *dispatch != "" || *chaos != "" {
			devCfgs := make([]nx.DeviceConfig, *devices)
			for i := range devCfgs {
				devCfgs[i] = cfg.Device
			}
			ncfg := nxzip.CustomNode("cli", devCfgs...)
			ncfg.Dispatch = *dispatch
			ncfg.TableMode = cfg.TableMode
			n, nerr := nxzip.OpenNode(ncfg)
			if nerr != nil {
				return nil, nerr
			}
			node = n
			if *chaos != "" {
				n.InstallInjectors(1, chaosProfile)
			}
			acc = n.View()
		} else {
			acc = nxzip.Open(cfg)
		}
		if *tracePath != "" {
			f, ferr := os.Create(*tracePath)
			if ferr != nil {
				return nil, ferr
			}
			traceFile = f
			acc.StartTrace(telemetry.NewChromeSink(f))
		}
		if *eventsPath != "" {
			f, ferr := os.Create(*eventsPath)
			if ferr != nil {
				return nil, ferr
			}
			eventsFile = f
			eventLog = telemetry.NewEventLog(acc.EnableEvents(), f, 256)
		}
		return acc, nil
	}
	defer func() {
		if acc != nil {
			acc.Close()
		}
	}()

	switch {
	case ff != nxzip.FormatGzip:
		// Non-gzip formats route through the format-parameterized API:
		// zlib/raw one-shots on the DEFLATE engine, 842 and LZ4 through
		// codec-capable dispatch with per-codec software fallback.
		cfg := nxzip.P9()
		if *chip == "z15" {
			cfg = nxzip.Z15()
		} else if *chip != "p9" {
			return fmt.Errorf("unknown chip %q", *chip)
		}
		if *fht {
			cfg.TableMode = nxzip.TableFixed
		}
		if _, err := open(cfg); err != nil {
			return err
		}
		if *decompress {
			result, metrics, err = acc.DecompressFormat(ff, src, 0)
		} else {
			result, metrics, err = acc.CompressFormat(ff, src)
		}
	case *swLevel > 0 && !*decompress:
		result, err = nxzip.SoftwareGzip(src, *swLevel)
	case *swLevel > 0 && *decompress:
		result, err = nxzip.GunzipMulti(src)
	default:
		cfg := nxzip.P9()
		if *chip == "z15" {
			cfg = nxzip.Z15()
		} else if *chip != "p9" {
			return fmt.Errorf("unknown chip %q", *chip)
		}
		if *fht {
			cfg.TableMode = nxzip.TableFixed
		}
		if _, err := open(cfg); err != nil {
			return err
		}
		if *decompress && *stream {
			r := acc.NewStreamReader(bytes.NewReader(src), 0)
			if _, cerr := io.Copy(out, r); cerr != nil {
				return cerr
			}
			result = nil
			metrics = &r.Stats
		} else if *decompress && *devices > 1 {
			// The mirror of -devices on the way in: members that carry
			// their length decode side by side, one worker a device.
			r := acc.NewParallelReader(bytes.NewReader(src), *devices)
			result, err = io.ReadAll(r)
			metrics = &r.Stats
		} else if *decompress {
			result, err = nxzip.GunzipMulti(src) // accept multi-member
			if err == nil {
				// Account the work on the device model as one request per
				// member equivalent; use the single-shot path when it is a
				// single member for exact metrics.
				if plain, m, derr := acc.DecompressGzip(src); derr == nil {
					result, metrics = plain, m
				}
			}
		} else if *stream && !*decompress {
			// One gzip member: compressed output flows to out segment by
			// segment as the one Write below runs (the input was read whole
			// above, as for every mode), as many segments in flight as
			// the device has engines.
			w := acc.NewStreamWriterChunk(out, *chunk)
			if _, werr := w.Write(src); werr != nil {
				return werr
			}
			if werr := w.Close(); werr != nil {
				return werr
			}
			result = nil
			metrics = &w.Stats
		} else if *devices > 1 {
			// Shard the stream across the node: the ParallelWriter's chunks
			// dispatch to devices by the node policy and reassemble in order.
			var buf bytes.Buffer
			w := acc.NewParallelWriterChunk(&buf, *chunk, *devices)
			if _, werr := w.Write(src); werr != nil {
				return werr
			}
			if werr := w.Close(); werr != nil {
				return werr
			}
			result = buf.Bytes()
			metrics = &w.Stats
		} else {
			result, metrics, err = acc.CompressGzip(src)
		}
	}
	if err != nil {
		return err
	}
	if result != nil {
		if _, err := out.Write(result); err != nil {
			return err
		}
	}

	if *verbose {
		host := time.Since(start)
		outLen := int64(len(result))
		if result == nil && metrics != nil {
			outLen = int64(metrics.OutBytes)
		}
		fmt.Fprintf(os.Stderr, "%s -> %s", stats.Bytes(int64(len(src))), stats.Bytes(outLen))
		if !*decompress && outLen > 0 {
			fmt.Fprintf(os.Stderr, " (ratio %.2f)", float64(len(src))/float64(outLen))
		}
		fmt.Fprintf(os.Stderr, "\nhost time  %v\n", host)
		if metrics != nil {
			fmt.Fprintf(os.Stderr, "device time %v (%d cycles, %d faults) = %s\n",
				metrics.DeviceTime, metrics.DeviceCycles, metrics.Faults,
				stats.Rate(metrics.Throughput()))
			if metrics.Redispatches > 0 || metrics.Degraded {
				fmt.Fprintf(os.Stderr, "recovery: %d redispatches, degraded=%v\n",
					metrics.Redispatches, metrics.Degraded)
			}
		}
		if node != nil {
			fmt.Fprintf(os.Stderr, "dispatch:")
			for i := 0; i < node.Devices(); i++ {
				fmt.Fprintf(os.Stderr, " %s=%d", node.Label(i), node.Dispatched(i))
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	if traceFile != nil {
		if err := acc.StopTrace(); err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
	if eventLog != nil {
		dropped, lerr := eventLog.Close()
		if lerr != nil {
			return lerr
		}
		if cerr := eventsFile.Close(); cerr != nil {
			return cerr
		}
		fmt.Fprintf(os.Stderr, "events written to %s (%d dropped)\n", *eventsPath, dropped)
	}
	if *dumpMet && acc != nil {
		acc.Metrics().Format(os.Stderr)
	}
	return nil
}
