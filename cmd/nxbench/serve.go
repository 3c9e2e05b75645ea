package main

import (
	"fmt"
	"time"

	"nxzip/internal/corpus"
	"nxzip/internal/experiments"
	"nxzip/internal/faultinject"
	"nxzip/internal/stats"
)

// obsServe runs a continuous compression workload on the chaos
// harness's z15 drawer behind the exposition server until dur elapses
// (0 = until interrupted); poll it with nxtop or curl. With a chaos
// spec the injectors are installed, so quarantine/failover events arrive
// on /events live.
func obsServe(addr string, dur time.Duration, chaosSpec string) error {
	node := experiments.DrawerNode()
	if chaosSpec != "" {
		p, err := faultinject.ParseProfile(chaosSpec)
		if err != nil {
			return err
		}
		node.InstallInjectors(experiments.Seed, p)
	}
	node.EnableFlightRecorder("") // memory-only: nxtop's flight panel goes live
	srv, err := node.ServeObs(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("nxbench: serving http://%s/{metrics,snapshot,healthz,events}", srv.Addr())
	if chaosSpec != "" {
		fmt.Printf(" with chaos profile %q", chaosSpec)
	}
	if dur > 0 {
		fmt.Printf(" for %v", dur)
	}
	fmt.Println()

	acc := node.View()
	defer acc.Close()
	const chunkSize = 256 << 10
	src := corpus.Generate(corpus.Text, 64*chunkSize, experiments.Seed)
	var deadline time.Time
	if dur > 0 {
		deadline = time.Now().Add(dur)
	}
	var bytes int64
	start := time.Now()
	for i := 0; deadline.IsZero() || time.Now().Before(deadline); i++ {
		off := (i % 64) * chunkSize
		if _, _, cerr := acc.CompressGzip(src[off : off+chunkSize]); cerr != nil {
			return cerr
		}
		bytes += chunkSize
	}
	fmt.Printf("nxbench: served %s of workload in %v (%s)\n",
		stats.Bytes(bytes), time.Since(start).Round(time.Millisecond),
		stats.Rate(float64(bytes)/time.Since(start).Seconds()))
	return nil
}
