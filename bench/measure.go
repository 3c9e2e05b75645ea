package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// measure.go holds the two passes every run makes after set-up: the
// verify pass (single client, fresh node, every op once, outputs
// cross-checked, model clock read) and the timed phase (closed loop,
// repetitions, host clock read).

// tally counts operations attempted and failed, verify and timed alike.
type tally struct {
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) add(failed bool, err error) {
	t.attempted++
	if failed {
		t.failed++
		if t.firstErr == nil && err != nil {
			t.firstErr = err
		}
	}
}

// modelTotals is what the verify pass reads on the model clock.
type modelTotals struct {
	plain      [2]int64         // plaintext bytes of device ops, per direction
	deviceTime [2]time.Duration // Σ Metrics.DeviceTime of device ops, per direction
	plainIn    int64            // plaintext into every compress-direction op
	compressed int64            // bytes out of every compress-direction op
	digest     string           // SHA-256 over output bytes and DeviceCycles
}

func (m modelTotals) gbs(d direction) float64 {
	return float64(m.plain[d]) / m.deviceTime[d].Seconds() / 1e9
}

func (m modelTotals) ratio() float64 { return float64(m.plainIn) / float64(m.compressed) }

// verify runs every op once on a fresh node with one client, twice. The
// first repeat cross-checks each output (against the standard library
// for DEFLATE formats in both directions, by round trip for 842 and
// lz4). Both repeats read the model clock; the run is only correct when
// the two agree exactly, because everything on that clock is meant to be
// a pure function of the input bytes.
func (in *instance) verify(t *tally) (modelTotals, error) {
	var repeats [2]modelTotals
	for r := range repeats {
		_, cs, err := in.spec.open(1)
		if err != nil {
			return modelTotals{}, err
		}
		c := cs[0]
		mt := &repeats[r]
		h := sha256.New()
		var word [8]byte
		for i := range in.ops {
			o := &in.ops[i]
			plain := in.payloads[o.payload]
			out, m, err := o.run(c, o.in)
			failed := o.judge(out, &m, err)
			if err == nil && r == 0 {
				if cerr := o.check(out, plain); cerr != nil {
					failed, err = true, fmt.Errorf("%s payload %d: %w", o.class, o.payload, cerr)
				}
			}
			t.add(failed, err)
			h.Write(out)
			binary.LittleEndian.PutUint64(word[:], uint64(m.DeviceCycles))
			h.Write(word[:])
			if o.device {
				mt.plain[o.dir] += int64(len(plain))
				mt.deviceTime[o.dir] += m.DeviceTime
			}
			if o.dir == dirCompress {
				mt.plainIn += int64(len(plain))
				mt.compressed += int64(len(out))
			}
		}
		// Interop in the other direction, after the model clock has been
		// read: these extra requests must not sit between the ops of one
		// repeat and not the other.
		for i := range in.ops {
			o := &in.ops[i]
			if r > 0 || o.stdlibIn == nil {
				continue // the first repeat alone cross-checks
			}
			plain := in.payloads[o.payload]
			out, m, err := o.run(c, o.stdlibIn(plain))
			failed := err != nil || m.Degraded
			if err == nil {
				if cerr := o.check(out, plain); cerr != nil {
					failed, err = true, fmt.Errorf("%s payload %d, stdlib-made input: %w", o.class, o.payload, cerr)
				}
			}
			t.add(failed, err)
		}
		mt.digest = hex.EncodeToString(h.Sum(nil))
		closeClients(cs)
		runtime.GC() // the repeat's node is garbage now; see run
	}
	if repeats[0] != repeats[1] {
		return repeats[0], fmt.Errorf("model clock is not deterministic: verify repeats differ (%+v vs %+v)", repeats[0], repeats[1])
	}
	return repeats[0], nil
}

// classTotals accumulates one op class over one repetition.
type classTotals struct {
	wall  time.Duration
	plain int64
}

// repetition is what one closed-loop repetition measured.
type repetition struct {
	classes []classTotals
	ops     int
	failed  int
	// lat holds per-request wall times in µs per direction, kept only
	// when asked for.
	lat     [2][]float64
	cpu     time.Duration
	mallocs uint64
	// sums of the program's own accounting over device ops
	deviceOps, faults, degraded, redispatches int
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// repeat runs one closed-loop repetition: every client runs whole rounds
// over the op list (each from its own offset, so two clients are never
// in lockstep on the same record) until the time is up. hook, when set,
// runs after each op on the single client of a traced repetition.
func (in *instance) repeat(cs []*client, d time.Duration, keepLat bool, hook func(o *op, start, end time.Time)) repetition {
	parts := make([]repetition, len(cs))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu := cpuTime()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := &parts[ci]
			rep.classes = make([]classTotals, len(in.classes))
			first := ci * len(in.ops) / len(cs)
			for {
				for k := range in.ops {
					o := &in.ops[(first+k)%len(in.ops)]
					start := time.Now()
					out, m, err := o.run(c, o.in)
					end := time.Now()
					wall := end.Sub(start)
					ct := &rep.classes[o.classIdx]
					ct.wall += wall
					ct.plain += int64(len(in.payloads[o.payload]))
					rep.ops++
					if o.judge(out, &m, err) {
						rep.failed++
					}
					if o.device {
						rep.deviceOps++
						rep.faults += m.Faults
						rep.redispatches += m.Redispatches
						if m.Degraded {
							rep.degraded++
						}
					}
					if keepLat {
						rep.lat[o.dir] = append(rep.lat[o.dir], float64(wall)/float64(time.Microsecond))
					}
					if hook != nil {
						hook(o, start, end)
					}
				}
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	total := repetition{classes: make([]classTotals, len(in.classes))}
	total.cpu = cpuTime() - cpu
	runtime.ReadMemStats(&ms)
	total.mallocs = ms.Mallocs - mallocs
	for _, p := range parts {
		for i, ct := range p.classes {
			total.classes[i].wall += ct.wall
			total.classes[i].plain += ct.plain
		}
		total.ops += p.ops
		total.failed += p.failed
		total.deviceOps += p.deviceOps
		total.faults += p.faults
		total.degraded += p.degraded
		total.redispatches += p.redispatches
		for d := range p.lat {
			total.lat[d] = append(total.lat[d], p.lat[d]...)
		}
	}
	return total
}

// mbps is the repetition's throughput in one direction: the geometric
// mean over that direction's op classes of plaintext bytes ÷ (Σ per-op
// wall time ÷ clients). With one class it is plain MB/s.
func (in *instance) mbps(r *repetition, d direction, nclients int) float64 {
	var per []float64
	for i, ct := range r.classes {
		if in.classDir[i] == d && ct.wall > 0 {
			per = append(per, float64(ct.plain)/(ct.wall.Seconds()/float64(nclients))/1e6)
		}
	}
	return geomean(per)
}

func (r *repetition) plainBytes() int64 {
	var n int64
	for _, ct := range r.classes {
		n += ct.plain
	}
	return n
}

// repetitions is how many times the timed phase repeats; every host
// metric is the median over them, with the min–max spread as its noise.
const repetitions = 5

// timed is the untraced timed phase: repetitions closed-loop
// repetitions with a GC between them, and the host-clock end-to-end
// metrics as medians over the repetitions.
func (in *instance) timed(seconds float64, t *tally, res *result) {
	per := time.Duration(seconds / repetitions * float64(time.Second))
	var comp, decomp, cpu, allocs []float64
	n := len(in.clients)
	for i := 0; i < repetitions; i++ {
		runtime.GC()
		r := in.repeat(in.clients, per, false, nil)
		t.attempted += r.ops
		t.failed += r.failed
		comp = append(comp, in.mbps(&r, dirCompress, n))
		decomp = append(decomp, in.mbps(&r, dirDecompress, n))
		cpu = append(cpu, float64(r.cpu)/float64(r.plainBytes()))
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
	}
	res.setReps("compress_mbps", comp)
	res.setReps("decompress_mbps", decomp)
	res.setReps("cpu_ns_per_byte", cpu)
	res.setReps("allocs_per_op", allocs)
}
