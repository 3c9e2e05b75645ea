// Command nxsim runs system-level what-if simulations on the queueing
// model: accelerator counts, tenant counts, arrival rates and request
// sizes, printing throughput and latency percentiles. It is the free-form
// companion to the fixed experiments in nxbench.
//
// Usage:
//
//	nxsim -accels 4 -tenants 32 -size 262144 -rate 20000 -dur 10
//	nxsim -tenants 64 -think 100us   # closed loop (the default, -rate 0)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nxzip/internal/queueing"
	"nxzip/internal/stats"
)

func main() {
	var (
		accels   = flag.Int("accels", 1, "number of accelerators")
		tenants  = flag.Int("tenants", 1, "number of tenants/clients")
		size     = flag.Int("size", 1<<20, "request size in bytes")
		rate     = flag.Float64("rate", 0, "open arrival rate (req/s); 0 = closed loop")
		think    = flag.Duration("think", 0, "closed-loop think time")
		dur      = flag.Float64("dur", 10, "simulated seconds")
		overhead = flag.Duration("overhead", 5*time.Microsecond, "per-request fixed cost")
		gbps     = flag.Float64("gbps", 7.5, "per-accelerator line rate, GB/s")
		queueCap = flag.Int("qcap", 0, "receive FIFO bound (0 = unbounded)")
		seed     = flag.Int64("seed", 1, "rng seed")
	)
	flag.Parse()

	cfg := queueing.Config{
		Servers:  *accels,
		Duration: *dur,
		Seed:     *seed,
		Sources:  *tenants,
		QueueCap: *queueCap,
		Service:  queueing.AcceleratorService(overheadSec(*overhead), *gbps*1e9),
	}
	var res queueing.Result
	mode := ""
	if *rate > 0 {
		res = queueing.SimulateOpen(cfg, *rate, queueing.FixedSize(*size))
		mode = fmt.Sprintf("open arrivals @ %.0f req/s", *rate)
	} else {
		res = queueing.SimulateClosed(cfg, *tenants, think.Seconds(), queueing.FixedSize(*size))
		mode = fmt.Sprintf("closed loop, think %v", *think)
	}

	fmt.Printf("nxsim: %d accel x %s line rate, %d tenants, %s requests, %s, %gs simulated\n",
		*accels, stats.Rate(*gbps*1e9), *tenants, stats.Bytes(int64(*size)), mode, *dur)
	fmt.Printf("  completed    %d requests (%d rejected)\n", res.Completed, res.Rejected)
	fmt.Printf("  throughput   %s\n", stats.Rate(res.Throughput))
	fmt.Printf("  latency      p50 %s  p95 %s  p99 %s  max %s\n",
		durOf(res.Latency.Percentile(50)), durOf(res.Latency.Percentile(95)),
		durOf(res.Latency.Percentile(99)), durOf(res.Latency.Percentile(100)))
	fmt.Printf("  mean queue   %.1f requests\n", res.MeanQueueLen)
	for i, u := range res.Utilization {
		fmt.Printf("  accel[%d]     %.1f%% busy\n", i, u*100)
	}
	if res.Completed == 0 {
		fmt.Fprintln(os.Stderr, "nxsim: nothing completed — check rate/duration")
		os.Exit(1)
	}
}

func overheadSec(d time.Duration) float64 { return d.Seconds() }

func durOf(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second)).Round(100 * time.Nanosecond)
}
