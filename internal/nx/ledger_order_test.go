package nx

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/nmmu"
	"nxzip/internal/testutil"
)

// What an engine's ledger is a function of. The same mix of unequal
// requests — every function code, the compressions with and without
// history, a resume step, one request whose source faults and is
// resubmitted, one that runs out of target — goes through 1-, 2- and
// 4-engine devices of both kinds from one goroutine and from two and four
// sharing a context. Which request an engine gets, and beside which others
// it runs, is then the host scheduler's business; what must not depend on
// it is every completion (bytes, CC, byte counts, cycles stage by stage, LZ
// counters, checksums, the ERAT split, the cycles wasted on the faulted
// attempt) and the engines' ledgers added up: Σ Counters() over the engines
// equals Σ over the completions, and Device.BusyCycles() with it. How the
// sum splits between engines is a function of the seed only for the serial
// driver, which deals attempts by turn, and is asserted only there.
//
// Every operand sits on pages of its own, so each page any request touches
// is a compulsory ERAT miss in whatever order they run; the faulting source
// is one page, so its second attempt re-translates nothing the first cached.

type ledgerFixtures struct {
	small, mid, big, noise []byte
	gz, zl, raw, lz4, x842 []byte // mid, encoded
	canned                 *deflate.DHT
}

func newLedgerFixtures(t *testing.T) *ledgerFixtures {
	t.Helper()
	probe := NewDevice(P9Device()).OpenContext(1)
	f := &ledgerFixtures{
		small:  corpus.Generate(corpus.JSONLogs, 3<<10, 41),
		mid:    corpus.Generate(corpus.HTML, 40<<10, 42),
		big:    corpus.Generate(corpus.Text, 96<<10, 43),
		noise:  corpus.Generate(corpus.Random, 20<<10, 44),
		canned: goldenCannedDHT(t),
	}
	f.gz = xlateDeflated(WrapGzip)(t, probe, f.mid)
	f.zl = xlateDeflated(WrapZlib)(t, probe, f.mid)
	f.raw = xlateDeflated(WrapRaw)(t, probe, f.mid)
	f.lz4 = xlateBlock(FCLZ4Compress)(t, probe, f.mid)
	f.x842 = xlateBlock(FC842Compress)(t, probe, f.mid)
	return f
}

// mix builds the requests on ctx, fresh resume state included. faulting
// names the one whose source page is not resident.
func (f *ledgerFixtures) mix(t *testing.T, ctx *Context) (crbs []CRB, faulting int) {
	t.Helper()
	mapped := func(n int, resident bool) uint64 {
		va, err := ctx.MapBuffer(n, resident)
		if err != nil {
			t.Fatal(err)
		}
		return va
	}
	add := func(crb CRB, input []byte, budget int) {
		crb.Input, crb.SourceVA = input, mapped(len(input), true)
		crb.TargetCap = budget
		crb.TargetVA = mapped(targetCap(&crb), true)
		crbs = append(crbs, crb)
	}
	hist := f.big[:32<<10]
	add(CRB{Func: FCCompressFHT, Wrap: WrapGzip}, f.small, 0)
	add(CRB{Func: FCCompressDHT, Wrap: WrapZlib}, f.big, 0)
	add(CRB{Func: FCCompressCannedDHT, Wrap: WrapRaw, DHT: f.canned}, f.mid, 0)
	add(CRB{Func: FCCompressDHT, Wrap: WrapRaw, History: hist}, f.big[32<<10:], 0)
	add(CRB{Func: FCCompressFHT, Wrap: WrapRaw, History: hist, NotFinal: true}, f.big[32<<10:40<<10], 0)
	add(CRB{Func: FCCompressCannedDHT, Wrap: WrapGzip, History: hist, DHT: f.canned}, f.big[32<<10:64<<10], 0)
	add(CRB{Func: FCCompressDHT, Wrap: WrapGzip}, f.noise, 0)
	add(CRB{Func: FCDecompress, Wrap: WrapGzip}, f.gz, len(f.mid))
	add(CRB{Func: FCDecompress, Wrap: WrapZlib}, f.zl, len(f.mid))
	add(CRB{Func: FCDecompress, Wrap: WrapRaw}, f.raw, len(f.mid))
	add(CRB{Func: FCDecompress, Wrap: WrapRaw, DecompState: NewDecompState(0)}, f.raw, len(f.mid))
	add(CRB{Func: FCLZ4Compress}, f.big, 0)
	add(CRB{Func: FCLZ4Decompress}, f.lz4, len(f.mid))
	add(CRB{Func: FC842Compress}, f.small, 0)
	add(CRB{Func: FC842Decompress}, f.x842, len(f.mid))
	add(CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecDeflate, TargetCodec: CodecLZ4}, f.gz, 2*len(f.mid))
	add(CRB{Func: FCTranscode, Wrap: WrapZlib, SourceCodec: CodecLZ4, TargetCodec: CodecDeflate}, f.lz4, 2*len(f.mid))
	add(CRB{Func: FCMove}, f.mid, 0)
	add(CRB{Func: FCDecompress, Wrap: WrapGzip}, f.gz, len(f.mid)-1) // CCTargetSpace
	add(CRB{Func: FCCompressFHT, Wrap: WrapZlib}, f.small, 0)
	faulting = len(crbs) - 1
	crbs[faulting].SourceVA = mapped(len(f.small), false)
	return crbs, faulting
}

type ledgerDone struct {
	csb *CSB
	rep *Report
}

// runLedgerMix drives the mix through a fresh device from the given number
// of goroutines (each takes the next request nobody has taken) and returns
// the completions in mix order.
func runLedgerMix(t *testing.T, f *ledgerFixtures, cfg DeviceConfig, goroutines int) (*Device, []ledgerDone, int) {
	t.Helper()
	dev := NewDevice(cfg)
	ctx := dev.OpenContext(1)
	crbs, faulting := f.mix(t, ctx)
	done := make([]ledgerDone, len(crbs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	drive := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < len(crbs); i = int(next.Add(1)) - 1 {
			csb, rep, err := ctx.Submit(&crbs[i])
			if err != nil {
				t.Errorf("request %d (%s): %v", i, crbs[i].Func, err)
				return
			}
			csb.QueueWait, rep.Time = 0, 0 // host clock
			done[i] = ledgerDone{csb, rep}
		}
	}
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go drive()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ctx.Close()
	testutil.Settled(t, dev)
	return dev, done, faulting
}

// ledgerSum adds up the engines' ledgers; LastLZ is not a sum.
func ledgerSum(dev *Device) (sum Counters) {
	for i := 0; i < dev.EngineCount(); i++ {
		c := dev.Engine(i).Counters()
		sum.Requests += c.Requests
		sum.BusyCycles += c.BusyCycles
		sum.InBytes += c.InBytes
		sum.OutBytes += c.OutBytes
		for cc := range c.CCCounts {
			sum.CCCounts[cc] += c.CCCounts[cc]
		}
		addStages(&sum.StageCycles, c.StageCycles)
	}
	return sum
}

func TestEngineLedgerIsOrderFree(t *testing.T) {
	f := newLedgerFixtures(t)
	for _, base := range []DeviceConfig{P9Device(), Z15Device()} {
		for _, engines := range []int{1, 2, 4} {
			cfg := base
			cfg.Engines = engines
			t.Run(fmt.Sprintf("%s/engines=%d", cfg.Engine.Pipeline.Name, engines), func(t *testing.T) {
				dev, serial, faulting := runLedgerMix(t, f, cfg, 1)

				// The mix is what it says it is.
				ccs := map[CC]int{}
				for i, d := range serial {
					ccs[d.csb.CC]++
					if (d.rep.Retries == 1) != (i == faulting) || d.rep.Retries > 1 {
						t.Fatalf("request %d: %d fault rounds; only request %d faults, once", i, d.rep.Retries, faulting)
					}
				}
				if ccs[CCSuccess] != len(serial)-1 || ccs[CCTargetSpace] != 1 {
					t.Fatalf("completion codes %v, want one target-space and the rest success", ccs)
				}

				// Σ ledgers == Σ completions, the faulted attempt included.
				var want Counters
				turn := make([]Counters, engines) // the serial deal: attempt k on engine k mod n
				attempt := 0
				for _, d := range serial {
					costs := []int64{d.csb.Cycles.Total}
					if d.rep.Retries > 0 {
						costs = []int64{d.rep.WastedCycles, d.csb.Cycles.Total}
						want.CCCounts[CCTranslationFault]++
					}
					for _, c := range costs {
						want.Requests++
						want.BusyCycles += c
						turn[attempt%engines].Requests++
						turn[attempt%engines].BusyCycles += c
						attempt++
					}
					want.InBytes += int64(d.csb.SPBC)
					want.OutBytes += int64(d.csb.TPBC)
					want.CCCounts[d.csb.CC]++
				}
				sum := ledgerSum(dev)
				want.StageCycles = sum.StageCycles // per stage: compared between drivers below
				if sum != want || sum.StageCycles.Total != want.BusyCycles || dev.BusyCycles() != want.BusyCycles {
					t.Fatalf("serial: engines' ledgers sum to\n%+v (Device.BusyCycles %d), the completions to\n%+v", sum, dev.BusyCycles(), want)
				}
				for i := range turn {
					if c := dev.Engine(i).Counters(); c.Requests != turn[i].Requests || c.BusyCycles != turn[i].BusyCycles {
						t.Errorf("serial: engine %d ran %d requests in %d cycles, dealt by turn it runs %d in %d",
							i, c.Requests, c.BusyCycles, turn[i].Requests, turn[i].BusyCycles)
					}
				}

				for _, goroutines := range []int{2, 4} {
					dev, got, _ := runLedgerMix(t, f, cfg, goroutines)
					for i := range got {
						g, w := got[i], serial[i]
						if !bytes.Equal(g.csb.Output, w.csb.Output) {
							t.Errorf("%d goroutines, request %d: output differs from the serial run's", goroutines, i)
						}
						gc, wc := *g.csb, *w.csb
						gc.Output, wc.Output = nil, nil
						if gs, ws := fmt.Sprintf("%+v %+v", gc, *g.rep), fmt.Sprintf("%+v %+v", wc, *w.rep); gs != ws {
							t.Errorf("%d goroutines, request %d:\n got %s\nwant %s", goroutines, i, gs, ws)
						}
					}
					if s := ledgerSum(dev); s != sum || dev.BusyCycles() != sum.BusyCycles {
						t.Errorf("%d goroutines: engines' ledgers sum to\n%+v (Device.BusyCycles %d), under the serial driver\n%+v",
							goroutines, s, dev.BusyCycles(), sum)
					}
				}
			})
		}
	}
}

// TestEngineLedgerCountsAFaultPastTheFirstPage: a target page reached
// during the operation faults, the attempt completes as that fault from
// inside the function code, and it is on the ledger like one that faulted
// before the operation — one request, setup plus translation plus
// completion — beside the restart's.
func TestEngineLedgerCountsAFaultPastTheFirstPage(t *testing.T) {
	dev := NewDevice(Z15Device())
	ctx := dev.OpenContext(1)
	src := corpus.Generate(corpus.Random, 96<<10, 45)
	target, err := ctx.MapBuffer(2*len(src), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.MMU().Touch(ctx.PID(), target); err != nil {
		t.Fatal(err)
	}
	csb, rep, err := ctx.Submit(&CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src, TargetVA: target, TargetCap: 2 * len(src)})
	if err != nil || csb.CC != CCSuccess || rep.Retries != 1 {
		t.Fatalf("err %v, CC %s, %d fault rounds; want one fault past the first page and a success", err, csb.CC, rep.Retries)
	}
	c := dev.Engine(0).Counters()
	if c.Requests != 2 || c.CCCounts[CCTranslationFault] != 1 || c.CCCounts[CCSuccess] != 1 ||
		c.BusyCycles != rep.TotalCycles || c.StageCycles.Total != rep.TotalCycles ||
		c.InBytes != int64(len(src)) || c.OutBytes != int64(csb.TPBC) || c.StageCycles.LZ != csb.Cycles.LZ {
		t.Fatalf("ledger %+v after a faulted attempt (%d cycles) and its restart (%+v)", c, rep.WastedCycles, csb.Cycles)
	}
	ctx.Close()
	testutil.Settled(t, dev)
}

// BenchmarkSharedEngineClients: b.N small compressions (1-4 KiB JSON log
// records, the fixed table, caller-owned blocks and target) from one client
// of a one-engine z15 device, then from each of two. scaling is the two
// clients' combined rate over the one client's: 2 when neither waits for
// the other, 1 when the engine runs one host computation at a time.
func BenchmarkSharedEngineClients(b *testing.B) {
	dev := NewDevice(Z15Device())
	var records [][]byte
	for i := 0; i < 16; i++ {
		records = append(records, corpus.Generate(corpus.JSONLogs, 1<<10+i*(3<<10)/15, int64(i)))
	}
	client := func(id int) func() {
		ctx := dev.OpenContext(nmmu.PID(id))
		var (
			csb    CSB
			rep    Report
			target = make([]byte, 0, 16<<10)
		)
		return func() {
			for i := 0; i < b.N; i++ {
				crb := CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: records[i%len(records)], Target: target}
				if err := ctx.SubmitInto(&crb, &csb, &rep); err != nil || csb.CC != CCSuccess {
					b.Errorf("client %d: %v, %s", id, err, csb.CC)
					return
				}
			}
		}
	}
	a, c := client(1), client(2)
	a() // build and warm what is built on first use
	b.ResetTimer()
	start := time.Now()
	a()
	one := time.Since(start)

	var wg sync.WaitGroup
	start = time.Now()
	for _, run := range []func(){a, c} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	two := time.Since(start)
	b.ReportMetric(2*one.Seconds()/two.Seconds(), "scaling")
}
