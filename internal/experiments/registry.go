package experiments

import "strings"

// Clock names what a table's numbers are measured on.
type Clock string

const (
	// Model tables come from the device model's cycle ledger and the
	// calibrated constants alone: the same on every host, pinned cell for
	// cell by testdata/model_tables.golden.
	Model Clock = "model clock"
	// Host tables hold wall-clock time measured on the machine running
	// them, so they vary from run to run and are held to bands only.
	Host Clock = "host clock"
)

// Experiment is one registry entry: a table's ID, the clock it is
// measured on, and the function that computes it.
type Experiment struct {
	ID    string
	Clock Clock
	table func() *Table
}

// Run computes the table and stamps it with the entry's clock.
func (e Experiment) Run() *Table {
	t := e.table()
	t.Clock = e.Clock
	return t
}

// Ablation reports whether the entry is one of the A1–A11 design sweeps.
func (e Experiment) Ablation() bool { return strings.HasPrefix(e.ID, "A") }

// Registry lists every experiment once, in the order nxbench renders them.
var Registry = []Experiment{
	{"E1", Model, E1CompressionRatio},
	{"E2", Model, E2ThroughputVsSize},
	{"E3", Model, E3SpeedupSingleCore},
	{"E4", Model, E4SpeedupWholeChip},
	{"E5", Model, E5Z15Doubling},
	{"E6", Model, E6SystemScaling},
	{"E7", Model, E7SparkTPCDS},
	{"E8", Model, E8LatencyBreakdown},
	{"E9", Model, E9MultiTenant},
	{"E10", Model, E10AreaPower},
	{"E11", Model, E11DHTStrategies},
	{"E12", Model, E12PageFaults},
	{"E13", Model, E13StreamComposition},
	{"E14", Model, E14MemoryExpansion},
	{"E15", Model, E15SubmissionInterfaces},
	{"E16", Model, E16QoS},
	{"E17", Model, E17SmallRequests},
	{"E18", Model, E18TopologyScaling},
	{"E19", Host, E19ChaosDegradation},
	{"E20", Host, E20ObservabilityOverhead},
	{"E21", Host, E21SmallRequestBatching},
	{"E22", Host, E22FlightRecorderOverhead},
	{"E23", Model, E23CodecShootout},
	{"E24", Host, E24OverloadProtection},
	{"E25", Host, E25TenantInterference},
	{"A1", Model, A1Banks},
	{"A2", Model, A2Ways},
	{"A3", Model, A3Lazy},
	{"A4", Model, A4Window},
	{"A5", Model, A5Width},
	{"A6", Model, A6SpecDecode},
	{"A7", Model, A7SampleSize},
	{"A8", Model, A8ERATSize},
	{"A9", Model, A9TableConstruction},
	{"A10", Model, A10ExpansionBound},
	{"A11", Model, A11ParseOptimality},
	{"H0", Host, EHostReference},
}

// Lookup returns the registry entry with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
