// TPC-C comparison: the paper's headline experiment in miniature. Runs the
// TPC-C-derived workload against all four configurations on the same
// simulated hardware and prints the throughput and latency comparison.
//
//	go run ./examples/tpcc
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	const clients = 8
	fmt.Printf("TPC-C, %d clients, PG-like engine, 7200 RPM disk, 5s measured\n\n", clients)
	fmt.Printf("%-14s %10s %12s %12s   %s\n", "configuration", "tps", "p50", "p99", "durability")

	for _, mode := range rapilog.Modes {
		tps, p50, p99 := run(mode, clients)
		durability := "safe"
		if mode == rapilog.ModeNativeAsync {
			durability = "UNSAFE (loses recent commits on any crash)"
		}
		fmt.Printf("%-14s %10.0f %12v %12v   %s\n", mode, tps,
			p50.Round(time.Microsecond), p99.Round(time.Microsecond), durability)
	}
	fmt.Println("\nshape to observe: rapilog ≈ native-async throughput with native-sync safety,")
	fmt.Println("and virt-sync shows the virtualisation cost rapilog more than buys back.")
}

func run(mode rapilog.Mode, clients int) (tps float64, p50, p99 time.Duration) {
	dep, err := rapilog.New(rapilog.Config{Seed: 7, Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	res, err := dep.Run(&rapilog.TPCC{Warehouses: 4, Districts: 10, Customers: 30, Items: 300}, rapilog.RunnerConfig{
		Clients: clients, Duration: 5 * time.Second, Warmup: time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Total.TPS(), res.Total.TxnLatency.Quantile(0.50), res.Total.TxnLatency.Quantile(0.99)
}
