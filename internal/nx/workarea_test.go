package nx

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nxzip/internal/checksum"
	"nxzip/internal/corpus"
	"nxzip/internal/freelist"
	"nxzip/internal/testutil"
)

// TestWorkAreaFollowsItsDrainer: a compress borrows its work area under the
// key of the context that drains it and returns it under that key, so two
// submitters that held areas at once each get their own back next, in
// whichever order they returned them. A view's contexts share its key
// across devices — of either geometry — and a transcode's encode pass
// borrows under it too. A key with nothing filed takes the newest area,
// and no more areas are ever built than were in flight at once.
//
// The area a compress ran in is the one whose token buffer it filled: each
// check empties both buffers first.
func TestWorkAreaFollowsItsDrainer(t *testing.T) {
	src := corpus.Generate(corpus.JSONLogs, 3<<10, 46)
	z15, p9 := NewDevice(Z15Device()), NewDevice(P9Device())
	lz4 := xlateBlock(FCLZ4Compress)(t, z15.OpenContext(9), src)

	saved := workAreas
	t.Cleanup(func() { workAreas = saved })

	a := z15.OpenContext(1) // outside a view: keys on itself
	b := z15.OpenContext(1) // a view's contexts, on two devices
	b.SetTenant(7)
	bP9 := p9.OpenContext(1)
	bP9.SetTenant(7)
	c := z15.OpenContext(1)
	if a.area == c.area || a.area == b.area || b.area != bP9.area {
		t.Fatalf("keys: raw %#x and %#x, view %#x and %#x", a.area, c.area, b.area, bP9.area)
	}

	compress := CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src}
	transcode := CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecLZ4, TargetCodec: CodecDeflate, Input: lz4}
	for _, order := range []string{"a then b", "b then a"} {
		built := 0
		workAreas = freelist.New(func() *workArea { built++; return newWorkArea() })
		wa, wb := workAreas.GetFor(a.area), workAreas.GetFor(b.area)
		if order == "a then b" {
			workAreas.PutFor(a.area, wa)
			workAreas.PutFor(b.area, wb)
		} else {
			workAreas.PutFor(b.area, wb)
			workAreas.PutFor(a.area, wa)
		}
		ran := func(ctx *Context, crb CRB) string {
			t.Helper()
			wa.tokBuf, wb.tokBuf = wa.tokBuf[:0], wb.tokBuf[:0]
			if csb, _, err := ctx.Submit(&crb); err != nil || csb.CC != CCSuccess {
				t.Fatalf("returned %s: %s: %v, %v", order, crb.Func, err, csb.CC)
			}
			switch {
			case len(wa.tokBuf) > 0 && len(wb.tokBuf) == 0:
				return "a's"
			case len(wb.tokBuf) > 0 && len(wa.tokBuf) == 0:
				return "b's"
			}
			return fmt.Sprintf("neither area alone (%d areas built)", built)
		}
		for _, row := range []struct {
			name string
			ctx  *Context
			crb  CRB
			want string
		}{
			{"a compresses", a, compress, "a's"},
			{"b compresses", b, compress, "b's"},
			{"a transcodes", a, transcode, "a's"},
			{"b compresses on the other geometry", bP9, compress, "b's"},
			{"c, a key with nothing filed, compresses", c, compress, "b's"},
		} {
			if got := ran(row.ctx, row.crb); got != row.want {
				t.Errorf("returned %s, %s: ran in %s area, want %s", order, row.name, got, row.want)
			}
		}
		if built != 2 {
			t.Errorf("returned %s: %d areas built, 2 were in flight", order, built)
		}
	}
}

// TestSplitCompressesSideBySide: two contexts of one single-engine device
// compress 1 MiB at the same time, with small compresses between, while
// there are Ps enough for both to split their LZ stages at once. Every
// completion equals the one-P run's (no split), the device settles, and no
// more areas are built than two per compress in flight.
func TestSplitCompressesSideBySide(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	large := corpus.Generate(corpus.Text, 1<<20, 46)
	small := corpus.Generate(corpus.JSONLogs, 4<<10, 46)
	crbs := []CRB{
		{Func: FCCompressDHT, Wrap: WrapGzip, Input: large},
		{Func: FCCompressFHT, Wrap: WrapGzip, Input: small},
		{Func: FCCompressFHT, Wrap: WrapRaw, Input: large[512<<10:], History: large[:512<<10]},
		{Func: FCCompressDHT, Wrap: WrapZlib, Input: small},
	}
	want := make([]*CSB, len(crbs))
	serial := NewDevice(P9Device()).OpenContext(1)
	for i := range crbs {
		csb, _, err := serial.Submit(&crbs[i])
		if err != nil || csb.CC != CCSuccess {
			t.Fatalf("serial %d: %v, %v", i, err, csb.CC)
		}
		want[i] = csb
	}

	runtime.GOMAXPROCS(max(4, procs))
	saved := workAreas
	t.Cleanup(func() { workAreas = saved })
	var built atomic.Int64
	workAreas = freelist.New(func() *workArea { built.Add(1); return newWorkArea() })
	dev := NewDevice(P9Device())
	const submitters = 2
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		ctx := dev.OpenContext(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := range crbs {
					crb := crbs[(i+s)%len(crbs)]
					csb, _, err := ctx.Submit(&crb)
					if err != nil {
						t.Errorf("submitter %d: %v", s, err)
						return
					}
					if w := want[(i+s)%len(crbs)]; !bytes.Equal(csb.Output, w.Output) || csb.CC != w.CC ||
						csb.SPBC != w.SPBC || csb.TPBC != w.TPBC || csb.CRC32 != w.CRC32 || csb.Adler32 != w.Adler32 ||
						csb.LZ != w.LZ || csb.Cycles != w.Cycles {
						t.Errorf("submitter %d, request %d: completion differs from the one-P run's", s, (i+s)%len(crbs))
					}
				}
			}
		}()
	}
	wg.Wait()
	testutil.Settled(t, dev)
	if n := built.Load(); n > 2*submitters {
		t.Errorf("%d areas built for %d compresses in flight", n, submitters)
	}
}

// TestSplitTakesAnIdleP: a large compress splits only when the requests and
// tails running leave a P idle for its tail. Alone at two Ps it builds a
// second area for the tail; beside one other request — a ParallelWriter's
// other worker, say — it runs serial in one, as it does at one P. Every
// request and tail is counted out when it is done.
func TestSplitTakesAnIdleP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	saved := workAreas
	t.Cleanup(func() { workAreas = saved })
	src := corpus.Generate(corpus.Text, splitMin, 47)
	for _, c := range []struct {
		procs, others int32
		areas         int64
	}{{2, 0, 2}, {2, 1, 1}, {1, 0, 1}, {4, 2, 2}, {4, 3, 1}} {
		runtime.GOMAXPROCS(int(c.procs))
		var built atomic.Int64
		workAreas = freelist.New(func() *workArea { built.Add(1); return newWorkArea() })
		ctx := NewDevice(P9Device()).OpenContext(1)
		running.Add(c.others) // requests of other callers, in flight throughout
		csb, _, err := ctx.Submit(&CRB{Func: FCCompressFHT, Wrap: WrapRaw, Input: src})
		running.Add(-c.others)
		ctx.Close()
		if err != nil || csb.CC != CCSuccess {
			t.Fatalf("GOMAXPROCS %d: %v, %v", c.procs, err, csb.CC)
		}
		if n := built.Load(); n != c.areas {
			t.Errorf("GOMAXPROCS %d, %d other requests running: %d areas built, want %d", c.procs, c.others, n, c.areas)
		}
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d requests or tails still counted as running", n)
	}
}

// TestFollowerTakesAnIdleP: a decompress's checksum follower starts its
// goroutine only when the requests and helpers running leave a P idle for
// it, the split's gate (idleP); otherwise its sums are taken inline. The
// gate is asked once per decompress, at the first publish, and either way
// the completion is the same. Every follower is counted out when it is
// done.
func TestFollowerTakesAnIdleP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	saved := followers
	t.Cleanup(func() { followers = saved })
	var started atomic.Int64
	followers = freelist.New(func() *checksum.Follower {
		return checksum.NewFollower(func() bool {
			ok := idleP()
			if ok {
				started.Add(1)
			}
			return ok
		})
	})
	plain := corpus.Generate(corpus.Text, 1<<20, 48)
	ctx := NewDevice(P9Device()).OpenContext(1)
	defer ctx.Close()
	comp, _, err := ctx.Submit(&CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: plain})
	if err != nil || comp.CC != CCSuccess {
		t.Fatalf("compress: %v, %v", err, comp.CC)
	}
	for _, c := range []struct {
		procs, others int32
		starts        int64
	}{{1, 0, 0}, {2, 0, 1}, {2, 1, 0}, {4, 0, 1}, {4, 2, 1}, {4, 3, 0}} {
		runtime.GOMAXPROCS(int(c.procs))
		started.Store(0)
		running.Add(c.others) // requests of other callers, in flight throughout
		csb, _, err := ctx.Submit(&CRB{Func: FCDecompress, Wrap: WrapGzip, Input: comp.Output, TargetCap: len(plain), MaxOutput: len(plain)})
		running.Add(-c.others)
		if err != nil || csb.CC != CCSuccess || !bytes.Equal(csb.Output, plain) ||
			csb.CRC32 != checksum.Sum32(plain) || csb.Adler32 != checksum.SumAdler32(plain) {
			t.Fatalf("GOMAXPROCS %d, %d others: %v, %v", c.procs, c.others, err, csb.CC)
		}
		if n := started.Load(); n != c.starts {
			t.Errorf("GOMAXPROCS %d, %d other requests running: %d followers started, want %d", c.procs, c.others, n, c.starts)
		}
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d requests or helpers still counted as running", n)
	}
}
