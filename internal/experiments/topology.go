package experiments

import (
	"fmt"

	"nxzip/internal/corpus"
	"nxzip/internal/nx"
	"nxzip/internal/topology"
)

// TopologyTargetGBs is the paper's aggregate-rate claim for the maximal
// z15 configuration (claim C6): 5 CPC drawers x 4 CP chips, each with one
// on-chip zEDC unit, approaching 280 GB/s. The figure is reconstructed
// from the paper's text, not measured on hardware.
const TopologyTargetGBs = 280.0

// topologyChunksPerDevice x topologyChunkSize is the work each device
// receives in the sweep; 1 MiB requests sit on the flat part of the
// throughput-vs-size curve (E2), so the sweep measures scaling, not
// per-request overhead.
const (
	topologyChunksPerDevice = 4
	topologyChunkSize       = 1 << 20
)

// deviceBusyTime returns the wall-clock the device's engines were busy,
// at the engine clock. Engines within a device run in parallel behind
// the shared FIFO, but the sweep's serial submission keeps one request
// in flight per device, so summing engine busy cycles is exact here.
func deviceBusyTime(d *nx.Device) float64 {
	var busy int64
	for i := 0; i < d.EngineCount(); i++ {
		e, err := d.EngineAt(i)
		if err != nil {
			panic(err) // unreachable: i < EngineCount
		}
		busy += e.Counters().BusyCycles
	}
	return d.PipelineConfig().Time(busy).Seconds()
}

// measureTopology drives one node configuration through the real
// dispatch layer: a node of `devices` z15 units is built, every chunk is
// routed by the policy (device picked before buffers map — VAs are
// per-device), and the aggregate rate is total bytes over the makespan,
// the busiest device's engine-busy time. Chunks are distinct corpus
// slices, so per-device work varies slightly and the efficiency number
// is honest rather than definitionally 1.0.
func measureTopology(devices int, policy topology.Policy) (totalBytes int, makespan float64) {
	specs := make([]topology.DeviceSpec, devices)
	for i := range specs {
		specs[i] = topology.DeviceSpec{Config: nx.Z15Device()}
	}
	node := topology.New(topology.Custom(fmt.Sprintf("z15-%ddev", devices), specs...), policy)
	nctx := node.OpenContext(1)
	defer nctx.Close()

	chunks := devices * topologyChunksPerDevice
	src := corpus.Generate(corpus.Text, chunks*topologyChunkSize, Seed)
	for i := 0; i < chunks; i++ {
		chunk := src[i*topologyChunkSize : (i+1)*topologyChunkSize]
		i, err := nctx.PickIndexAvail()
		if err == nil {
			nctx.AcquireIndex(i)
			_, _, err = nctx.At(i).Compress(chunk, nx.FCCompressDHT, nx.WrapGzip, true)
			nctx.ReleaseIndex(i, err)
		}
		if err != nil {
			panic(fmt.Sprintf("E18 %d devices: %v", devices, err))
		}
	}

	for i := 0; i < node.Size(); i++ {
		if t := deviceBusyTime(node.Device(i)); t > makespan {
			makespan = t
		}
	}
	return chunks * topologyChunkSize, makespan
}

// TopologyDeviceCounts is E18's sweep: a single z15 unit, then whole CPC
// drawers up to the maximal five (4, 8, 12, 16, 20 zEDC units).
var TopologyDeviceCounts = []int{1, 4, 8, 12, 16, 20}

// E18TopologyScaling runs the default sweep, dispatched round-robin.
func E18TopologyScaling() *Table {
	return TopologyScalingCustom(TopologyDeviceCounts, topology.RoundRobin())
}

// TopologyScalingCustom sweeps explicit device counts under an explicit
// dispatch policy.
func TopologyScalingCustom(deviceCounts []int, policy topology.Policy) *Table {
	t := &Table{
		ID:     "E18",
		Title:  "aggregate rate vs device count through the dispatch layer (claim C6: 280 GB/s)",
		Header: []string{"devices", "drawers", "aggregate", "per-device", "scaling", "efficiency"},
	}
	var base float64
	for _, n := range deviceCounts {
		bytes, makespan := measureTopology(n, policy)
		rate := float64(bytes) / makespan
		if base == 0 {
			base = rate / float64(n)
		}
		drawers := "-"
		if n%z15DrawerChips == 0 {
			drawers = fmt.Sprintf("%d", n/z15DrawerChips)
		}
		t.AddRow(fmt.Sprintf("%d", n), drawers, gbs(rate), gbs(rate/float64(n)),
			f2(rate/base)+"x", f2(rate/base/float64(n)))
	}
	t.Note("policy: %s; makespan = busiest device's engine-busy time; chunks are distinct 1 MiB corpus slices", policy.Name())
	t.Note("paper claim C6 (reconstructed): maximal z15 (5 drawers, 20 zEDC units) approaches %.0f GB/s aggregate", TopologyTargetGBs)
	return t
}

// z15DrawerChips mirrors the topology package's CP-chips-per-drawer
// constant for drawer labeling in the table.
const z15DrawerChips = 4
