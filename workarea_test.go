package nxzip

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/nx"
)

// TestWorkAreasKeyedBySubmitter: two views of one node and a context
// opened outside any view compress, transcode and decompress side by side,
// from two goroutines each, every submission on whichever device its turn
// names. Work areas pass between their keys under that traffic; every
// completion — bytes, CC, byte counts, cycles, LZ counters, checksums —
// equals the serial run's, and the node settles. A view's contexts share
// its key on every device, the raw context has none of a view's, and views
// of two nodes in one process never share one (view IDs are numbered per
// process, not per node).
func TestWorkAreasKeyedBySubmitter(t *testing.T) {
	var records [][]byte
	for i := 0; i < 6; i++ {
		records = append(records, corpus.Generate(corpus.JSONLogs, 256+i*(3<<10)/5, int64(60+i)))
	}
	acc := Open(Z15())
	gz, _, err := acc.CompressGzip(records[5])
	if err != nil {
		t.Fatal(err)
	}
	lz4, _, err := acc.CompressFormat(FormatLZ4, records[4])
	if err != nil {
		t.Fatal(err)
	}
	acc.Close()
	var crbs []nx.CRB
	for i, rec := range records {
		crbs = append(crbs,
			nx.CRB{Func: nx.FCCompressFHT, Wrap: nx.WrapGzip, Input: rec},
			nx.CRB{Func: nx.FCCompressDHT, Wrap: nx.WrapZlib, Input: rec[i:]})
	}
	crbs = append(crbs,
		nx.CRB{Func: nx.FCTranscode, Wrap: nx.WrapGzip, SourceCodec: nx.CodecLZ4, TargetCodec: nx.CodecDeflate, Input: lz4},
		nx.CRB{Func: nx.FCDecompress, Wrap: nx.WrapGzip, Input: gz, TargetCap: len(records[5])})

	// run sends every request from each of three submitters, request i of
	// a view on device i mod 4, from the given number of goroutines per
	// submitter, and returns the completions by submitter and request.
	run := func(goroutines int) [3][]nx.CSB {
		node, err := OpenNode(Z15Node(1))
		if err != nil {
			t.Fatal(err)
		}
		v1, v2 := node.View(), node.View()
		raw := node.Device(0).OpenContext(2)
		for _, v := range []*Accelerator{v1, v2} {
			for i := 0; i < node.Devices(); i++ {
				if id := v.nctx.At(i).Tenant(); id != v.TenantID() {
					t.Fatalf("view %d's context on device %d keys on %d", v.TenantID(), i, id)
				}
			}
		}
		if v1.TenantID() == v2.TenantID() || raw.Tenant() != 0 {
			t.Fatalf("views key on %d and %d, the raw context on view key %d", v1.TenantID(), v2.TenantID(), raw.Tenant())
		}
		submitters := [3]func(i int) *nx.Context{
			func(i int) *nx.Context { return v1.nctx.At(i % node.Devices()) },
			func(i int) *nx.Context { return v2.nctx.At(i % node.Devices()) },
			func(int) *nx.Context { return raw },
		}
		var (
			out [3][]nx.CSB
			wg  sync.WaitGroup
		)
		for s, ctxAt := range submitters {
			out[s] = make([]nx.CSB, len(crbs))
			var next atomic.Int64
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < len(crbs); i = int(next.Add(1)) - 1 {
						crb := crbs[i]
						csb, _, err := ctxAt(i).Submit(&crb)
						if err != nil {
							t.Errorf("submitter %d, request %d (%s): %v", s, i, crb.Func, err)
							return
						}
						csb.QueueWait = 0 // host clock
						out[s][i] = *csb
					}
				}()
			}
		}
		wg.Wait()
		v1.Close()
		v2.Close()
		raw.Close()
		settled(t, node)
		return out
	}

	serial := run(1)
	for s := range serial {
		for i, csb := range serial[s] {
			if csb.CC != nx.CCSuccess {
				t.Fatalf("serial: submitter %d, request %d: %s", s, i, csb.CC)
			}
		}
	}
	got := run(2)
	for s := range got {
		for i := range got[s] {
			g, w := got[s][i], serial[s][i]
			if !bytes.Equal(g.Output, w.Output) {
				t.Errorf("submitter %d, request %d: output differs from the serial run's", s, i)
			}
			g.Output, w.Output = nil, nil
			if gs, ws := fmt.Sprintf("%+v", g), fmt.Sprintf("%+v", w); gs != ws {
				t.Errorf("submitter %d, request %d:\n got %s\nwant %s", s, i, gs, ws)
			}
		}
	}

	// Two nodes in one process: no view of one keys on a view of the other.
	a, err := OpenNode(Z15Node(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenNode(Z15Node(1))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[uint64]string{}
	for n, node := range []*Node{a, b} {
		for v := 0; v < 3; v++ {
			view := node.View()
			defer view.Close()
			for i := 0; i < node.Devices(); i++ {
				k := view.nctx.At(i).Tenant()
				name := fmt.Sprintf("node %d view %d", n, v)
				if other, ok := keys[k]; ok && other != name {
					t.Errorf("%s and %s both key on %d", other, name, k)
				}
				keys[k] = name
			}
		}
	}
}
