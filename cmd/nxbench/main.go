// Command nxbench renders the reproduction's experiment tables — E1–E25
// per DESIGN.md plus the A1–A11 design-choice ablations and the H0 host
// reference — from internal/experiments' registry, each title naming the
// clock its numbers are measured on.
//
// Usage:
//
//	nxbench                  # every experiment in the registry
//	nxbench -only E7         # one experiment by ID (E1..E25, A1..A11, H0)
//	nxbench -ablations       # the A1–A11 design sweeps
//	nxbench -devices 8 -dispatch ll     # one E18 topology point
//	nxbench -chaos fault-storm          # one chaos profile vs the clean baseline
//	nxbench -serve :8090 -serve-dur 30s # workload behind the obs HTTP server (add -chaos mild)
//
// E19's fault-rate sweep is -only E19; -chaos runs one named profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nxzip/internal/experiments"
	"nxzip/internal/faultinject"
	"nxzip/internal/topology"
)

func main() {
	only := flag.String("only", "", "run a single experiment id (E1..E25, A1..A11, H0)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablation sweeps")
	devices := flag.Int("devices", 0, "measure a single E18 topology point with this many z15 devices")
	dispatch := flag.String("dispatch", "", "dispatch policy for the topology sweep: round-robin, least-loaded, affinity")
	chaos := flag.String("chaos", "", "measure one chaos profile (mild, heavy, fault-storm, ... or \"class=rate,...\") against the clean baseline; with -serve, inject it into the served node")
	serve := flag.String("serve", "", "run a workload behind the observability HTTP server on this address (e.g. :8090); combine with -chaos and -serve-dur")
	serveDur := flag.Duration("serve-dur", 0, "how long -serve runs the workload (0 = until interrupted)")
	flag.Parse()

	var (
		tables []*experiments.Table
		err    error
	)
	switch {
	case *serve != "":
		err = obsServe(*serve, *serveDur, *chaos)
	case *chaos != "":
		var p faultinject.Profile
		if p, err = faultinject.ParseProfile(*chaos); err == nil {
			t := experiments.ChaosProfile(*chaos, p)
			t.Clock = experiments.Host
			tables = append(tables, t)
		}
	case *devices > 0 || *dispatch != "":
		var policy topology.Policy
		if policy, err = topology.ParsePolicy(*dispatch); err == nil {
			counts := experiments.TopologyDeviceCounts
			if *devices > 0 {
				counts = []int{*devices}
			}
			t := experiments.TopologyScalingCustom(counts, policy)
			t.Clock = experiments.Model
			tables = append(tables, t)
		}
	case *only != "":
		e, ok := experiments.Lookup(strings.ToUpper(*only))
		if !ok {
			fmt.Fprintf(os.Stderr, "nxbench: unknown experiment %q\n", *only)
			os.Exit(2)
		}
		tables = append(tables, e.Run())
	default:
		for _, e := range experiments.Registry {
			if !*ablations || e.Ablation() {
				tables = append(tables, e.Run())
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nxbench: %v\n", err)
		os.Exit(1)
	}
	if len(tables) == 0 {
		return
	}
	fmt.Println("nxzip experiment harness — reproduction of ISCA 2020 \"Data compression accelerator on IBM POWER9 and z15 processors\"")
	for _, t := range tables {
		t.Render(os.Stdout)
	}
}
