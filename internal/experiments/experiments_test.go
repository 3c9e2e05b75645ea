package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"nxzip/internal/topology"
)

// cell parses a numeric cell that may carry a unit suffix.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tab.ID, row, col)
	}
	s := tab.Rows[row][col]
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, "%")
	fields := strings.Fields(s)
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q: %v", tab.ID, row, col, s, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tab := pinned(t, "E1")
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		name := row[0]
		fht := cell(t, tab, i, 1)
		dht := cell(t, tab, i, 2)
		z6 := cell(t, tab, i, 5)
		switch name {
		case "random":
			if dht > 1.02 || dht < 0.95 {
				t.Fatalf("random dht ratio %v", dht)
			}
		case "zeros":
			if dht < 100 {
				t.Fatalf("zeros dht ratio %v", dht)
			}
		default:
			// DHT beats FHT, and hardware is within 2x of zlib-6 on every
			// non-degenerate class (the paper's "competitive ratio" claim).
			if dht < fht {
				t.Fatalf("%s: dht %v < fht %v", name, dht, fht)
			}
			if name != "dna" && dht < 0.75*z6 {
				t.Fatalf("%s: dht %v too far below zlib-6 %v", name, dht, z6)
			}
		}
	}
}

func TestE2Shape(t *testing.T) {
	tab := pinned(t, "E2")
	n := len(tab.Rows)
	// Throughput must rise monotonically with size (latency → line rate)
	// and the largest size must approach the P9 8 GB/s line rate.
	for col := 1; col <= 4; col++ {
		prev := 0.0
		for row := 0; row < n; row++ {
			v := cell(t, tab, row, col)
			if v < prev*0.98 {
				t.Fatalf("col %d: %v after %v — not rising", col, v, prev)
			}
			prev = v
		}
	}
	if last := cell(t, tab, n-1, 1); last < 6.0 || last > 8.0 {
		t.Fatalf("P9 large-buffer rate %v outside [6, 8] GB/s", last)
	}
}

func TestE3Claim388x(t *testing.T) {
	tab := pinned(t, "E3")
	best := cell(t, tab, 2, 3) // level 9 speedup
	if best < 330 || best > 450 {
		t.Fatalf("level-9 speedup %v outside the 388x regime", best)
	}
}

func TestE4Claim13x(t *testing.T) {
	tab := pinned(t, "E4")
	sp := cell(t, tab, 1, 3)
	if sp < 10 || sp > 16 {
		t.Fatalf("whole-chip speedup %v outside the 13x regime", sp)
	}
}

func TestE5ClaimDoubling(t *testing.T) {
	tab := pinned(t, "E5")
	last := cell(t, tab, len(tab.Rows)-1, 3)
	if last < 1.7 || last > 2.3 {
		t.Fatalf("z15/p9 at large size %v, want ~2", last)
	}
}

func TestE6Claim280(t *testing.T) {
	tab := pinned(t, "E6")
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "20" {
		t.Fatalf("last row chips = %s", last[0])
	}
	agg := cell(t, tab, len(tab.Rows)-1, 1)
	if agg < 240 || agg > 300 {
		t.Fatalf("20-chip aggregate %v GB/s, want ~280", agg)
	}
	// Near-linear scaling.
	if sc := cell(t, tab, len(tab.Rows)-1, 2); sc < 18 {
		t.Fatalf("scaling %vx at 20 chips", sc)
	}
}

func TestE7Claim23Percent(t *testing.T) {
	tab := pinned(t, "E7")
	sp := cell(t, tab, 1, 4)
	if sp < 15 || sp > 32 {
		t.Fatalf("Spark speedup %v%% outside the 23%% regime", sp)
	}
}

func TestE8Shape(t *testing.T) {
	tab := pinned(t, "E8")
	// Total latency rises with size; small-request total is dominated by
	// fixed overheads (setup+dht+complete ≈ 7.5us).
	first := cell(t, tab, 0, 6)
	last := cell(t, tab, len(tab.Rows)-1, 6)
	if first > 15 {
		t.Fatalf("4KB total %v us too high", first)
	}
	if last < 20*first {
		t.Fatalf("8MB total %v not much above 4KB %v", last, first)
	}
}

func TestE9Shape(t *testing.T) {
	tab := pinned(t, "E9")
	// Aggregate throughput saturates; P99 grows with tenants; FIFO stays
	// fair (within 2x worst/best tenant).
	p99First := cell(t, tab, 0, 3)
	p99Last := cell(t, tab, len(tab.Rows)-1, 3)
	if p99Last < 4*p99First {
		t.Fatalf("P99 %v -> %v: no queueing growth", p99First, p99Last)
	}
	for i := range tab.Rows {
		if fair := cell(t, tab, i, 4); fair > 2.0 {
			t.Fatalf("row %d fairness %v", i, fair)
		}
	}
}

func TestE10Claims(t *testing.T) {
	tab := pinned(t, "E10")
	// P9 accel chip fraction < 0.5%.
	if frac := cell(t, tab, 0, 2); frac >= 0.5 {
		t.Fatalf("P9 area fraction %v%%", frac)
	}
	// Accelerator GB/s/W must dwarf software.
	accel := cell(t, tab, 0, 3)
	sw := cell(t, tab, 1, 3)
	if accel < 100*sw {
		t.Fatalf("efficiency accel %v vs sw %v", accel, sw)
	}
}

func TestE11Shape(t *testing.T) {
	tab := pinned(t, "E11")
	for i, row := range tab.Rows {
		fht := cell(t, tab, i, 1)
		dht := cell(t, tab, i, 2)
		canned := cell(t, tab, i, 3)
		if dht < fht {
			t.Fatalf("%s: dht %v < fht %v", row[0], dht, fht)
		}
		// Canned tables trained on similar data should be close to the
		// per-request table, slightly below or occasionally above.
		if canned < 0.8*dht {
			t.Fatalf("%s: canned %v far below dht %v", row[0], canned, dht)
		}
		// FHT requests must be cheaper per KB than DHT requests.
		if cell(t, tab, i, 4) >= cell(t, tab, i, 5) {
			t.Fatalf("%s: fht cycles not below dht", row[0])
		}
	}
}

func TestE12Shape(t *testing.T) {
	tab := pinned(t, "E12")
	// Retries grow with non-resident fraction and effective rate falls.
	prevRate := 1e18
	for i := range tab.Rows {
		rate := cell(t, tab, i, 3)
		if rate > prevRate {
			t.Fatalf("rate increased with fault fraction")
		}
		prevRate = rate
	}
	if r := cell(t, tab, 0, 1); r != 0 {
		t.Fatalf("resident run had %v retries", r)
	}
	if r := cell(t, tab, len(tab.Rows)-1, 1); r < 4 {
		t.Fatalf("fully non-resident run had only %v retries", r)
	}
	// The paper's point: even 100% faulting costs only a modest factor.
	if rel := cell(t, tab, len(tab.Rows)-1, 4); rel < 0.4 {
		t.Fatalf("fault overhead slowdown to %vx: too severe", rel)
	}
}

func TestAblationShapes(t *testing.T) {
	a1 := pinned(t, "A1")
	// More banks -> fewer conflicts (monotone non-increasing).
	prev := int64(1 << 62)
	for i := range a1.Rows {
		c, _ := strconv.ParseInt(a1.Rows[i][3], 10, 64)
		if c > prev {
			t.Fatalf("A1: conflicts rose with banks")
		}
		prev = c
	}
	a2 := pinned(t, "A2")
	if cell(t, a2, 0, 1) > cell(t, a2, len(a2.Rows)-1, 1) {
		t.Fatalf("A2: ratio fell with more ways")
	}
	a3 := pinned(t, "A3")
	if cell(t, a3, 1, 1) < cell(t, a3, 0, 1) {
		t.Fatalf("A3: lazy did not improve ratio (%v vs %v)",
			cell(t, a3, 1, 1), cell(t, a3, 0, 1))
	}
	a4 := pinned(t, "A4")
	if cell(t, a4, 0, 1) > cell(t, a4, len(a4.Rows)-1, 1) {
		t.Fatalf("A4: ratio fell with larger window")
	}
	a5 := pinned(t, "A5")
	if rel := cell(t, a5, len(a5.Rows)-1, 3); rel < 4 {
		t.Fatalf("A5: 32B width only %vx of 4B", rel)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "T", Title: "title", Clock: Host, Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Note("hello %d", 42)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T — title [host clock]\n", "a", "bb", "hello 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestE13Shape(t *testing.T) {
	tab := pinned(t, "E13")
	for i := range tab.Rows {
		member := cell(t, tab, i, 1)
		history := cell(t, tab, i, 2)
		oneShot := cell(t, tab, i, 3)
		if history <= member {
			t.Fatalf("row %d: history ratio %v not above member %v", i, history, member)
		}
		if history < 0.9*oneShot {
			t.Fatalf("row %d: history %v too far below one-shot %v", i, history, oneShot)
		}
	}
	// Replay overhead must shrink as chunks grow.
	first := cell(t, tab, 0, 4)
	last := cell(t, tab, len(tab.Rows)-1, 4)
	if last >= first {
		t.Fatalf("replay overhead did not amortize: %v -> %v", first, last)
	}
}

func TestE14Shape(t *testing.T) {
	tab := pinned(t, "E14")
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	randRow, ok := byName["random"]
	if !ok {
		t.Fatal("no random row")
	}
	if randRow[1] != "1.00x" {
		t.Fatalf("random expansion %s", randRow[1])
	}
	zf, _ := strconv.ParseFloat(strings.TrimSuffix(byName["zeros"][1], "x"), 64)
	tf, _ := strconv.ParseFloat(strings.TrimSuffix(byName["text"][1], "x"), 64)
	if zf <= tf || tf <= 1.1 {
		t.Fatalf("ordering broken: zeros %v, text %v", zf, tf)
	}
}

func TestE15Shape(t *testing.T) {
	tab := pinned(t, "E15")
	// Sync benefit must shrink with request size.
	prev := 1e18
	for i := range tab.Rows {
		b := cell(t, tab, i, 3)
		if b >= prev {
			t.Fatalf("sync benefit not shrinking: row %d = %v", i, b)
		}
		prev = b
	}
	// CPU-free fraction must grow with request size.
	if cell(t, tab, 0, 4) >= cell(t, tab, len(tab.Rows)-1, 4) {
		t.Fatal("async cpu-free fraction not growing")
	}
}

func TestA6Shape(t *testing.T) {
	tab := pinned(t, "A6")
	for i, row := range tab.Rows {
		sync := cell(t, tab, i, 1)
		if sync < 90 {
			t.Fatalf("%s: sync rate %v%%", row[0], sync)
		}
		l2 := cell(t, tab, i, 3)
		l8 := cell(t, tab, i, 5)
		if l2 < 1.5 || l8 < 6 || l8 > 8 {
			t.Fatalf("%s: lane speedups %v / %v implausible", row[0], l2, l8)
		}
	}
}

func TestA7Shape(t *testing.T) {
	tab := pinned(t, "A7")
	// Ratio must be non-decreasing with sample size on both columns.
	for col := 1; col <= 2; col++ {
		prev := 0.0
		for i := range tab.Rows {
			v := cell(t, tab, i, col)
			if v < prev-0.01 {
				t.Fatalf("col %d: ratio fell with larger sample (%v -> %v)", col, prev, v)
			}
			prev = v
		}
	}
	// Tiny samples must hurt visibly on text.
	if cell(t, tab, 0, 1) >= 0.95*cell(t, tab, len(tab.Rows)-1, 1) {
		t.Fatal("4 KiB sample should cost ratio vs full pass")
	}
}

func TestA8Shape(t *testing.T) {
	tab := pinned(t, "A8")
	// Translate cycles non-increasing; large ERAT hit rate near 100%.
	prev := int64(1 << 62)
	for i := range tab.Rows {
		v, _ := strconv.ParseInt(tab.Rows[i][1], 10, 64)
		if v > prev {
			t.Fatalf("translate cycles rose with bigger ERAT")
		}
		prev = v
	}
	if hr := cell(t, tab, len(tab.Rows)-1, 2); hr < 90 {
		t.Fatalf("large-ERAT hit rate %v%%", hr)
	}
	if hr := cell(t, tab, 0, 2); hr > 50 {
		t.Fatalf("tiny-ERAT hit rate %v%% too high for a thrash test", hr)
	}
}

func TestE16Shape(t *testing.T) {
	tab := pinned(t, "E16")
	fifoUrgent := cell(t, tab, 0, 2)
	priUrgent := cell(t, tab, 1, 2)
	if priUrgent >= fifoUrgent/2 {
		t.Fatalf("priority urgent p99 %v not well below FIFO %v", priUrgent, fifoUrgent)
	}
	// Bulk pays little and throughput stays close.
	fifoTp := cell(t, tab, 0, 4)
	priTp := cell(t, tab, 1, 4)
	if priTp < 0.9*fifoTp {
		t.Fatalf("priority throughput %v collapsed vs %v", priTp, fifoTp)
	}
}

func TestE17Shape(t *testing.T) {
	tab := pinned(t, "E17")
	// FHT beats DHT at the smallest size; DHT wins at the largest.
	if cell(t, tab, 0, 2) <= cell(t, tab, 0, 1) {
		t.Fatal("FHT should beat DHT at 512 B (header overhead)")
	}
	last := len(tab.Rows) - 1
	if cell(t, tab, last, 1) <= cell(t, tab, last, 2) {
		t.Fatal("DHT should beat FHT at 1 MiB")
	}
	// Header share decays monotonically.
	prev := 101.0
	for i := range tab.Rows {
		v := cell(t, tab, i, 4)
		if v >= prev {
			t.Fatalf("header share not decaying: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestE18Shape(t *testing.T) {
	// A trimmed sweep keeps the test cheap; nxbench runs the full one.
	tab := TopologyScalingCustom([]int{1, 4}, topology.RoundRobin())
	tab.Clock = Model
	golden(t, tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if drawers := tab.Rows[1][1]; drawers != "1" {
		t.Fatalf("4 devices = %s drawers", drawers)
	}
	// z15 per-unit regime: roughly double the P9 ~8 GB/s line rate.
	if one := cell(t, tab, 0, 2); one < 10 || one > 18 {
		t.Fatalf("single z15 unit %v GB/s outside the doubled-P9 regime", one)
	}
	// Near-linear scaling through the dispatch layer (acceptance: >= 0.8).
	if eff := cell(t, tab, 1, 5); eff < 0.8 {
		t.Fatalf("4-device efficiency %v below 0.8", eff)
	}
	if sc := cell(t, tab, 1, 4); sc < 3.2 || sc > 4.05 {
		t.Fatalf("4-device scaling %vx implausible", sc)
	}
}

func TestA10Shape(t *testing.T) {
	tab := pinned(t, "A10")
	for i, row := range tab.Rows {
		exp := cell(t, tab, i, 3)
		if exp < -0.5 {
			t.Fatalf("%s: negative expansion %v%% on random data", row[0], exp)
		}
		switch row[0] {
		case "842":
			if exp > 8.0 {
				t.Fatalf("842 expansion %v%% beyond template bound", exp)
			}
		case "sw auto (stored fallback)":
			if exp > 0.1 {
				t.Fatalf("stored fallback expansion %v%%", exp)
			}
		case "nx fht":
			if exp > 10 {
				t.Fatalf("fht expansion %v%%", exp)
			}
		}
	}
}

func TestA11Shape(t *testing.T) {
	tab := pinned(t, "A11")
	for i, row := range tab.Rows {
		hw := cell(t, tab, i, 1)
		sw := cell(t, tab, i, 2)
		opt := cell(t, tab, i, 3)
		if !(hw <= sw*1.01 && sw <= opt*1.01) {
			t.Fatalf("%s: ordering broken hw=%v sw=%v opt=%v", row[0], hw, sw, opt)
		}
		if hw < 0.7*opt {
			t.Fatalf("%s: hw %v implausibly far from optimal %v", row[0], hw, opt)
		}
	}
}

func TestE23Shape(t *testing.T) {
	tab := pinned(t, "E23")
	row := map[string]int{}
	for i, r := range tab.Rows {
		row[r[0]] = i
	}
	// DEFLATE buys ratio with its entropy stage; LZ4 buys ingest rate.
	if cell(t, tab, row["deflate"], 1) <= cell(t, tab, row["lz4"], 1) {
		t.Fatal("deflate ratio not above lz4's")
	}
	if cell(t, tab, row["lz4"], 2) <= cell(t, tab, row["deflate"], 2) {
		t.Fatal("lz4 compress rate not above deflate's")
	}
}

func TestA9Shape(t *testing.T) {
	tab := pinned(t, "A9")
	for i, row := range tab.Rows {
		// Package-merge is optimal, and the repair heuristic loses almost
		// nothing to it under DEFLATE's 15-bit limit.
		if excess := cell(t, tab, i, 3); excess < 0 || excess > 0.1 {
			t.Fatalf("%s: heuristic excess %v%%", row[0], excess)
		}
	}
}
