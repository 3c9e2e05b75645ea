GO ?= go

.PHONY: check build vet fmt-check test race chaos bench bench-alloc bench-host fuzz-smoke nxbench parallel trace-demo loc

## check: the tier-1 gate — build, vet, gofmt, the full test suite under
## the race detector (which holds the model-clock experiment tables to
## internal/experiments/testdata/model_tables.golden, and the
## observability, flight-recorder, graceful-drain and tenant-accounting
## surfaces to their end-to-end tests over a live node), the
## fault-injection chaos suite, the zero-alloc hot-path gate and the
## parser/decoder fuzz smoke. CI and pre-merge runs use this target.
check: build vet fmt-check race chaos bench-alloc fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## chaos: the fault-injection suite under the race detector — injected
## CC errors, fault/paste storms, credit leaks, engine hangs, device
## kill/revive, failover, software fallback, graceful drain (including
## the kill-mid-drain race), overload shedding, tenant-series churn and
## burn-rate evaluation, the parallel soak, and the submission-protocol
## conformance rows (every nx entry point under the same faults).
chaos:
	$(GO) test -race -run 'Submission|Chaos|Inject|FaultStorm|EngineHang|Offline|Deadline|Cancel|CreditLeak|Backoff|Resume|Drain|Overload|Admission|Tenant|Burn' . ./internal/nx ./internal/faultinject ./internal/topology ./internal/admission ./internal/obs

## bench: time every experiment table (BenchmarkExperiments, one
## sub-benchmark per registry ID) and the device and stream paths.
bench:
	$(GO) test -bench . -benchtime 1x ./...

## bench-alloc: the zero-alloc acceptance gate. The AllocsPerRun assert
## (0 allocations per steady-state pooled one-shot, compress and
## decompress — with the flight recorder both detached AND attached —
## and the result plus the returned Metrics for the copying one-shots)
## must run without the race detector — race instrumentation
## allocates — so it runs plain here, and the batch/pooled paths run
## again under -race for the memory model. The device layer has its own
## gate one level down: nx.Context.SubmitInto at 0 allocations, beside
## the conformance table that holds every nx entry point to one protocol;
## and the inflate core its own below that: dynamic blocks into a roomy
## Dst at 0 allocations (tables live in the pooled inflater).
## TestIntoPathAllocFree and TestSubmitIntoAllocFree each run twice, fixed
## table and engine-generated DHT: counting, the Huffman build, the header
## plan and the codes all live in the encoder scratch of the work area a
## compress borrows (internal/nx's free list, built on first use).
## TestSplitCompressAllocFree is the same zero for a 1 MiB generate-DHT
## compress into a caller target at two Ps, where its LZ stage splits: the
## tail's goroutine starts on a method value stored in its area, and the
## process's count is read around windows of compresses because
## AllocsPerRun runs at one P; the least of five windows must be 0.
## TestDecompressFollowerAllocFree, in the root line, is the same zero for a
## 1 MiB DecompressGzipInto at two Ps, where the checksum follower's
## goroutine sums the output beside the inflate (started, like the tail, on
## a method value stored when it is built). The 842
## codec's gate is one allocation a call, its output: Compress (the match
## tables are on its stack), and Decompress under an exact budget. The
## stream wrappers are gated per 8 MiB stream of bench/'s stream_parallel
## shape, beside the Session's own gate: ParallelWriter on two workers
## (chunks cut where they lie in p, members appended into three recycled
## jobs) at 1.75 MB and 96 allocations, StreamWriter on a two-engine device
## (segments cut where they lie in p, bodies appended into three recycled
## jobs) at 1 MB and 24 allocations, and StreamReader (one read buffer, the
## result appended to the drained one) at 4 MB.
## The -race line also runs the three writers' failure paths with pieces in
## flight: TestStreamWriterPartialWrite* (the io.Writer count of Writer,
## ParallelWriter and StreamWriter with the sink and the windows failing
## mid-wave, every later call answering the same error, no goroutine left
## when a call returns), TestParallelWriterSinkFailure (the same of a
## writer nobody Closes) and TestStreamWriterFailoverInFlight (the pin
## migrating once under two segments that both lost their device, heavy
## faults, a tight gate).
## The first line is the LZ stage's: TestHWMatcherFootprint (every slice a
## new HWMatcher holds, summed: a head per set plus a link per position of
## a 64 Ki ring — the size of the history, not sets x ways; 256 KiB for
## P9, 640 KiB for z15; a process holds one per compress in flight at
## once, not one per engine)
## and TestSoftMatcherTokenizeAllocatesOnce (the software baseline's
## tokens: one allocation a call, none into a slice handed back). In the
## root line, TestCodecLabelIsTheNeedSetsNameAndAllocFree holds a
## transcode's digest label to 0, and TestIntoPathAllocFree's regexp also
## runs ...AcrossCollections: the same zero with two collections before
## every request, which is what the free lists (internal/freelist's line:
## kept across collections, newest first, nothing allocated in balance)
## are for — a request's allocations do not follow the collector's pace.
## TestSessionFeedShortOfABlockAllocatesNothing, in deflate's line: a Feed
## that ends inside a block (every chunk a StreamReader submits) gets its
## "ran out of input" as a value, not from fmt.Errorf.
bench-alloc:
	$(GO) test -run 'TestHWMatcherFootprint|TestSoftMatcherTokenizeAllocatesOnce' -count=1 ./internal/lz77
	$(GO) test -run 'TestDecodeAllocsNothingInSteadyState|TestSessionFeedAllocsIndependentOfBlockCount|TestSessionFeedShortOfABlockAllocatesNothing' -count=1 ./internal/deflate
	$(GO) test -run 'TestOneAllocation' -count=1 ./internal/x842
	$(GO) test -run 'TestSubmitIntoAllocFree|TestSplitCompressAllocFree|TestSubmissionConformance' -count=1 ./internal/nx
	$(GO) test -run 'TestListSurvivesCollections|TestListBalancedUseAllocatesNothing' -count=1 ./internal/freelist
	$(GO) test -run 'TestIntoPathAllocFree|TestDecompressFollowerAllocFree|TestOneShotAllocBound|TestOneShotMappingsStable|TestMemberGrowLoopMappingsBounded|TestFlightRecorderAllocFree|TestCodecLabelIsTheNeedSetsNameAndAllocFree|TestParallelWriterAllocsBounded|TestStreamReaderAllocsBounded|TestStreamWriterAllocsBounded' -count=1 .
	$(GO) test -race -run 'TestCompressBatch|TestCompressGzipInto|TestCompressZlibInto|TestPooledFallback|TestStreamWriterPartialWrite|TestParallelWriterSinkFailure|TestStreamWriterFailoverInFlight' -count=1 .

## fuzz-smoke: 30 s of coverage-guided fuzzing over each attack surface
## fed by untrusted or operator input — the block decoders (LZ4 block
## decode, 842 decode), the CLI-facing parsers (format names, the
## admission -key=value policy) and the Prometheus exposition round-trip
## (WriteProm output with adversarial tenant labels must always
## ParseProm back) — plus the differential target that holds the
## host-fast lz77.HWMatcher to its reference implementation (equal
## tokens and equal HWStats, i.e. the model clock does not move; the
## matcher keeps a set as a chain through the window where the reference
## keeps a row of ways, and the target is seeded with the rows of
## TestHWMatcherEqualsReference where the two could part: a repeat at
## distance MaxDist and one a byte past it, sets that take more inserts
## than they have ways, bases crossing multiples of the ring length behind
## a replayed 32 KiB history, a lazy probe of the set just linked into), the
## three DEFLATE decode targets: the inflate core against its reference
## (equal bytes, consumed input and error class), lossless re-encoding of
## whatever decodes, and Session against the one-shot decode — tenth, the
## encoder against its reference (table construction, header, emit loop
## and bit writer: equal bytes and equal error for every block mode,
## table source and shape of dst; the compressed bytes are the model's
## TPBC and ratio) — and, eleventh and twelfth, the 842 kernels against
## their reference codec (ref_test.go): the encoder (equal bytes, on the
## input as it comes and folded to a two-symbol alphabet that keeps every
## fifo full, and Decompress takes them back) and the decoder (equal bytes
## or an equal error class on arbitrary streams and budgets). Thirteenth,
## the first above the device: Reader at any worker count against the
## serial member loop (refPrimeSerial), on arbitrary multi-member streams —
## hints and trailers forged, truncated, flipped — and budgets (equal bytes
## or an equal error class, every Read after a failure answering that
## failure, compress/gzip agreeing wherever the loop succeeds). Its seeds
## are whole multi-member streams and an execution is two reads through
## the device model, so minimizing one interesting input for the default
## 60 s would outlast the run: -fuzzminimizetime 2s. Fourteenth, its
## counterpart on the way in: StreamWriter against the one-segment-at-a-time
## writer (refStreamWriter), on arbitrary data, chunk sizes and Write splits
## over every device, table mode and engine count of
## TestStreamWriterEqualsSerial (equal bytes, equal Stats, equal segment
## count; compress/gzip and StreamReader take the stream back) — ROADMAP
## item 4's "arbitrary chunk splits through StreamWriter" clause; an
## execution is two streams through the device model, so it too runs with
## -fuzzminimizetime 2s. Fifteenth, the member writers — Writer, and
## ParallelWriter at 1, 2, 3 and 8 workers — against the writer of
## persistent workers and a collector (refParallelWriter) and the stamped
## one-shots both are made of, on arbitrary data, chunk sizes and Write
## splits over the nodes and engine counts of
## TestMemberWritersEqualReference (equal members, equal Stats through one
## window; compress/gzip and Reader take the stream back) — ROADMAP item
## 4's "arbitrary chunk splits through Writer" clause; an execution is
## three streams through the device model: -fuzzminimizetime 2s. Sixteenth,
## the one-shot decodes under any budget — gzip, zlib, raw, 842 and lz4 on
## either accelerator, each run on a view of its own: whenever the output
## fits, the bytes, the CRC and the device cycles are the exact-budget
## run's, and when it does not the answer is target-space, never different
## bytes (ROADMAP item 4's one-shot clause; seeded from the sizes and
## budgets of internal/nx's TestTranslateFollowsOutput; an execution opens
## three views: -fuzzminimizetime 2s). Seventeenth, its encode side: any
## bytes through either accelerator under every table mode and framing,
## from two goroutines sharing one view — compress/flate inflates each
## output to the input and the two outputs are equal, whichever work area
## each was computed in and whichever geometry used it last (the views
## outlive an execution, so one accelerator's follows the other's).
## Eighteenth, the LZ stage split at a seam (internal/lz77's
## TokenizeTail/TokenizeHead) against one pass and the reference matcher:
## any input, geometry word, history cut and seam, equal tokens and equal
## HWStats. Nineteenth, the checksum follower (internal/deflate's
## FuzzFollowerEqualsInline): any stream in any framing, budget and Dst
## decodes to the same bytes, CRC-32, Adler-32, consumed input and error
## with no follower, with one whose goroutine never starts and with one
## whose goroutine sums each published stripe beside the decode. Nineteen
## targets in all. The three that used to stand outside the
## recipe are inside a neighbour: FuzzBlockDecode round-trips its input
## through the lz4 encoder as well (FuzzRoundTrip's law), FuzzDecompress
## hands every input to the gzip framing as well as to the inflate core
## (FuzzGzipUnwrap's), and the 842 FuzzRoundTrip's law is the last step of
## FuzzCompressEqualsReference; the three keep running their seeds under go
## test. FuzzHWMatcherEqualsReference runs every input a second time on one
## matcher re-shaped from the previous execution's geometry
## (HWMatcher.Reset: what a work area does between a P9 and a z15 engine).
## Finds panics/OOMs in the bounds-checked decode loops and parser edge
## cases; go test -fuzz accepts one fuzz target per invocation, hence one
## run each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBlockDecode -fuzztime 30s ./internal/lz4
	$(GO) test -run '^$$' -fuzz FuzzDecompressRobust -fuzztime 30s ./internal/x842
	$(GO) test -run '^$$' -fuzz FuzzParseFormat -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime 30s ./internal/admission
	$(GO) test -run '^$$' -fuzz FuzzPromRoundTrip -fuzztime 30s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzHWMatcherEqualsReference -fuzztime 30s ./internal/lz77
	$(GO) test -run '^$$' -fuzz FuzzInflateEqualsReference -fuzztime 30s ./internal/deflate
	$(GO) test -run '^$$' -fuzz 'FuzzDecompress$$' -fuzztime 30s ./internal/deflate
	$(GO) test -run '^$$' -fuzz FuzzSessionEqualsOneShot -fuzztime 30s ./internal/deflate
	$(GO) test -run '^$$' -fuzz FuzzEncodeEqualsReference -fuzztime 30s ./internal/deflate
	$(GO) test -run '^$$' -fuzz FuzzCompressEqualsReference -fuzztime 30s ./internal/x842
	$(GO) test -run '^$$' -fuzz FuzzDecompressEqualsReference -fuzztime 30s ./internal/x842
	$(GO) test -run '^$$' -fuzz FuzzReaderEqualsSerial -fuzztime 30s -fuzzminimizetime 2s .
	$(GO) test -run '^$$' -fuzz FuzzStreamWriterEqualsSerial -fuzztime 30s -fuzzminimizetime 2s .
	$(GO) test -run '^$$' -fuzz FuzzMemberWritersEqualReference -fuzztime 30s -fuzzminimizetime 2s .
	$(GO) test -run '^$$' -fuzz FuzzBudgetDoesNotChangeTheAnswer -fuzztime 30s -fuzzminimizetime 2s .
	$(GO) test -run '^$$' -fuzz FuzzCompressInflatesWithFlate -fuzztime 30s -fuzzminimizetime 2s .
	$(GO) test -run '^$$' -fuzz FuzzSplitEqualsSerial -fuzztime 30s ./internal/lz77
	$(GO) test -run '^$$' -fuzz FuzzFollowerEqualsInline -fuzztime 30s ./internal/deflate

## bench-host: the host clock of the kernel paths, end to end and then
## layer by layer — one of bench/'s workloads (WORKLOAD, bulk_oneshot
## unless given) untraced (the nine end-to-end metrics; compress_mbps and
## decompress_mbps are the headlines) and traced (the per-layer ledger).
## On bulk_oneshot the compress headline rows are compress_mbps end to end
## and, under it, lz77.hw.ns_per_byte (the LZ stage),
## deflate.encode.ns_per_byte (the emit loop) and deflate.dht.us_per_block
## (table generation); the decode one is deflate.inflate.ns_per_byte.
## make bench-host WORKLOAD=codec_mix prints the block codecs' rows: its
## headlines are x842.compress.ns_per_byte and x842.decompress.ns_per_byte
## (the 842 kernels) and nxzip.x842.mbps (842 through the root API).
## make bench-host WORKLOAD=stream_parallel prints the stream wrappers':
## its headlines are nxzip.preader.mbps (the parallel Reader, to be read
## against the one-shot decompress_mbps of bulk_oneshot),
## nxzip.streamreader.mbps, nxzip.pwriter.mbps and nxzip.streamwriter.mbps
## (the history stream on the same two-engine device: to be read against
## nxzip.pwriter.mbps, which it should be within 15 % of). See
## bench/README.md for the paired-run method a claimed gain needs.
WORKLOAD ?= bulk_oneshot
bench-host:
	$(GO) run ./bench -workload $(WORKLOAD) -trace 0
	$(GO) run ./bench -workload $(WORKLOAD) -trace 1

## nxbench: render every experiment table of the registry (E1–E25,
## A1–A11, H0), each title naming its clock; one table is
## go run ./cmd/nxbench -only <ID>.
nxbench:
	$(GO) run ./cmd/nxbench

## parallel: serial-vs-parallel Writer/Reader throughput scaling.
parallel:
	$(GO) run ./cmd/nxbench -parallel

## trace-demo: record the quickstart run as Chrome trace_event JSON (the
## example parse-checks the file before reporting success) — load
## trace-demo.json in chrome://tracing or ui.perfetto.dev.
trace-demo:
	$(GO) run ./examples/quickstart -trace trace-demo.json -metrics

## loc: the non-test line counts ROADMAP.md's table quotes (lines of the
## .go files that are not _test.go), printed as that table: the root
## package, internal/nx, the observing code (internal/telemetry,
## internal/obs, internal/flightrec and the root glue: observe.go,
## flightrec.go, tenant.go, admit.go) with its total, and the
## measurement code (internal/experiments, cmd/nxbench, bench/, which
## this only reads).
loc:
	@lines() { for f in "$$@"; do case $$f in *_test.go) ;; *) cat "$$f" ;; esac; done | wc -l | tr -d ' '; }; \
	tel=$$(lines internal/telemetry/*.go); obs=$$(lines internal/obs/*.go); \
	rec=$$(lines internal/flightrec/*.go); glue=$$(lines observe.go flightrec.go tenant.go admit.go); \
	echo '| code | lines |'; echo '|---|---|'; \
	echo "| root package | $$(lines *.go) |"; \
	echo "| \`internal/nx\` | $$(lines internal/nx/*.go) |"; \
	echo "| \`internal/telemetry\` | $$tel |"; \
	echo "| \`internal/obs\` | $$obs |"; \
	echo "| \`internal/flightrec\` | $$rec |"; \
	echo "| root observing glue | $$glue |"; \
	echo "| observing code, total | $$((tel + obs + rec + glue)) |"; \
	echo "| \`internal/experiments\` | $$(lines internal/experiments/*.go) |"; \
	echo "| \`cmd/nxbench\` | $$(lines cmd/nxbench/*.go) |"; \
	echo "| \`bench/\` | $$(lines bench/*.go) |"
