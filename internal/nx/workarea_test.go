package nx

import (
	"fmt"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/freelist"
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
		workAreas = freelist.New(func() *workArea { built++; return new(workArea) })
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
