package nxzip

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
)

// TestCompressBatchRoundtrip: a mixed-size batch over a four-device z15
// node — every request completes, every frame gunzips byte-exactly, and
// the group rode one paste per device (PasteRejects/BackoffWaits ride
// entry 0 of each group, zero on an idle node).
func TestCompressBatchRoundtrip(t *testing.T) {
	node, err := OpenNode(Z15Node(1)) // 4 zEDC units
	if err != nil {
		t.Fatal(err)
	}
	acc := node.View()
	defer acc.Close()

	sizes := []int{256, 512, 1024, 2048, 4096, 100, 8192, 1, 3000, 4096, 700, 64}
	reqs := make([]*BatchRequest, len(sizes))
	for i, n := range sizes {
		reqs[i] = &BatchRequest{Src: corpus.Generate(corpus.JSONLogs, n, int64(i+1))}
	}
	// One request brings its own backing, one slot is nil (skipped).
	reqs[3].Dst = make([]byte, 0, 16<<10)
	reqs = append(reqs, nil)

	acc.CompressBatch(reqs)

	dispatched := 0
	for i, r := range reqs {
		if r == nil {
			continue
		}
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		plain, err := SoftwareGunzip(r.Out)
		if err != nil || !bytes.Equal(plain, r.Src) {
			t.Fatalf("request %d: gunzip mismatch: %v", i, err)
		}
		if r.Metrics.Degraded {
			t.Fatalf("request %d degraded on a healthy node", i)
		}
		if r.Metrics.OutBytes != len(r.Out) || r.Metrics.InBytes != len(r.Src) {
			t.Fatalf("request %d metrics: in=%d out=%d want %d/%d",
				i, r.Metrics.InBytes, r.Metrics.OutBytes, len(r.Src), len(r.Out))
		}
		dispatched++
	}
	if len(reqs[3].Out) > 0 && &reqs[3].Out[0] != &reqs[3].Dst[:1][0] {
		t.Fatal("caller-owned Dst not used as the output backing")
	}
	// One paste per device per batch, not one per request: the device
	// layer's paste count must be <= the device count, far below the
	// request count.
	pastes := int64(0)
	for i := 0; i < node.Devices(); i++ {
		pastes += node.Device(i).Switchboard().Stats().Pastes
	}
	if pastes > int64(node.Devices()) {
		t.Fatalf("batch used %d pastes for %d requests across %d devices — submission not amortized",
			pastes, dispatched, node.Devices())
	}
}

// TestCompressBatchEmptyAndNil: degenerate inputs are no-ops.
func TestCompressBatchEmptyAndNil(t *testing.T) {
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	acc.CompressBatch(nil)
	acc.CompressBatch([]*BatchRequest{})
	acc.CompressBatch([]*BatchRequest{nil, nil})
	// Zero-length payload still produces a valid (empty) gzip member.
	r := &BatchRequest{Src: nil}
	acc.CompressBatch([]*BatchRequest{r})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	plain, err := SoftwareGunzip(r.Out)
	if err != nil || len(plain) != 0 {
		t.Fatalf("empty-payload member: %v (len %d)", err, len(plain))
	}
}

// TestCompressBatchTranslationFaults: with translation faults injected,
// faulted entries are touched and resubmitted individually — the batch
// still completes byte-exactly, without degrading to software, and the
// retries are visible in the per-request metrics.
func TestCompressBatchTranslationFaults(t *testing.T) {
	_, acc, _ := openChaosNode(t, P9Node(1), faultinject.Profile{TransFault: 0.4})
	reqs := make([]*BatchRequest, 24)
	for i := range reqs {
		reqs[i] = &BatchRequest{Src: corpus.Generate(corpus.Text, 2048, int64(i+1))}
	}
	acc.CompressBatch(reqs)
	faults := 0
	for i, r := range reqs {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		plain, err := SoftwareGunzip(r.Out)
		if err != nil || !bytes.Equal(plain, r.Src) {
			t.Fatalf("request %d mismatch under faults: %v", i, err)
		}
		faults += r.Metrics.Faults
	}
	if faults == 0 {
		t.Fatal("no translation faults observed at a 40% injection rate — fault path untested")
	}
}

// TestCompressBatchDegradesToSoftware: a dead pool completes the whole
// batch through the software encoder with Degraded set — same contract
// as the one-shot paths.
func TestCompressBatchDegradesToSoftware(t *testing.T) {
	_, acc, injs := openChaosNode(t, P9Node(1), faultinject.Profile{})
	injs[0].SetOffline(true)
	reqs := make([]*BatchRequest, 8)
	for i := range reqs {
		reqs[i] = &BatchRequest{Src: corpus.Generate(corpus.Source, 1500, int64(i+1))}
	}
	acc.CompressBatch(reqs)
	for i, r := range reqs {
		if r.Err != nil {
			t.Fatalf("request %d with dead pool: %v", i, r.Err)
		}
		if !r.Metrics.Degraded {
			t.Fatalf("request %d not flagged Degraded", i)
		}
		plain, err := SoftwareGunzip(r.Out)
		if err != nil || !bytes.Equal(plain, r.Src) {
			t.Fatalf("request %d degraded mismatch: %v", i, err)
		}
	}
}

// TestCompressBatchConcurrent exercises the batch path under the race
// detector: concurrent batches over a multi-device node, interleaved
// with one-shot traffic, must stay byte-exact with no lost completions.
func TestCompressBatchConcurrent(t *testing.T) {
	node, err := OpenNode(Z15Node(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := node.View()
	defer acc.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				reqs := make([]*BatchRequest, 10)
				for i := range reqs {
					reqs[i] = &BatchRequest{Src: corpus.Generate(corpus.JSONLogs, 512+128*i, int64(g*100+round*10+i+1))}
				}
				acc.CompressBatch(reqs)
				for i, r := range reqs {
					if r.Err != nil {
						t.Errorf("goroutine %d round %d req %d: %v", g, round, i, r.Err)
						return
					}
					plain, err := SoftwareGunzip(r.Out)
					if err != nil || !bytes.Equal(plain, r.Src) {
						t.Errorf("goroutine %d round %d req %d: mismatch (%v)", g, round, i, err)
						return
					}
				}
			}
		}(g)
	}
	// One-shot traffic competing for the same FIFOs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := corpus.Generate(corpus.Text, 16<<10, 99)
		for i := 0; i < 12; i++ {
			gz, _, err := acc.CompressGzip(src)
			if err != nil {
				t.Error(err)
				return
			}
			plain, _, err := acc.DecompressGzip(gz)
			if err != nil || !bytes.Equal(plain, src) {
				t.Errorf("one-shot under batch load: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	settled(t, node)
}

// TestCompressBatchChainedCycles pins the batch timeline model: chained
// envelope entries pay a descriptor advance and a CSB store, not the
// full paste-to-dispatch setup and interrupt-bearing completion, so a
// mid-batch request costs fewer modeled cycles than the same request
// submitted alone — that delta is the whole point of CompressBatch.
func TestCompressBatchChainedCycles(t *testing.T) {
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	src := corpus.Generate(corpus.JSONLogs, 4<<10, 9)
	_, one, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*BatchRequest, 8)
	for i := range reqs {
		reqs[i] = &BatchRequest{Src: src}
	}
	acc.CompressBatch(reqs)
	var sum int64
	for i, r := range reqs {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		sum += r.Metrics.DeviceCycles
	}
	mid := reqs[3].Metrics.DeviceCycles
	if mid >= one.DeviceCycles {
		t.Fatalf("chained entry cost %d cycles, one-shot %d — envelope chaining not amortizing setup/complete",
			mid, one.DeviceCycles)
	}
	// Entry 0 carries the envelope's full dispatch, the last entry its
	// interrupt; both must still beat or match a lone submission, and the
	// batch as a whole must undercut eight lone submissions.
	if first := reqs[0].Metrics.DeviceCycles; first > one.DeviceCycles {
		t.Fatalf("first entry %d cycles exceeds a lone submission's %d", first, one.DeviceCycles)
	}
	if sum >= 8*one.DeviceCycles {
		t.Fatalf("batch of 8 cost %d cycles, eight one-shots %d — no protocol amortization",
			sum, 8*one.DeviceCycles)
	}
}

// TestCompressBatchTableModes: the batch honours the accelerator's table
// mode, including canned tables riding each CRB.
func TestCompressBatchTableModes(t *testing.T) {
	for _, mode := range []TableMode{TableDynamic, TableFixed, TableCanned} {
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			acc := Open(Config{Device: P9().Device, TableMode: mode})
			defer acc.Close()
			sample := corpus.Generate(corpus.JSONLogs, 32<<10, 7)
			if mode == TableCanned {
				if err := acc.TrainTable(sample); err != nil {
					t.Fatal(err)
				}
			}
			reqs := []*BatchRequest{
				{Src: sample[:2048]},
				{Src: sample[2048:6144]},
			}
			acc.CompressBatch(reqs)
			for i, r := range reqs {
				if r.Err != nil {
					t.Fatalf("req %d: %v", i, r.Err)
				}
				plain, err := SoftwareGunzip(r.Out)
				if err != nil || !bytes.Equal(plain, r.Src) {
					t.Fatalf("req %d roundtrip: %v", i, err)
				}
			}
		})
	}
}
