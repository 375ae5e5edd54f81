// Durability-exposure audit: the quantitative half of RapiLog's safety
// argument, measured rather than asserted. A traced rapilog deployment runs
// a commit-heavy workload; the commit-lifecycle trace is then replayed into
// the time-series of acknowledged-but-undrained bytes, and the peak is
// checked against the provable bound (SafeBufferSize capped by the
// configured buffer). The same trace yields each write's ack→durable
// latency — the exposure window the hold-up budget must cover.
//
//	go run ./examples/exposure
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

func main() {
	dep, err := rapilog.New(rapilog.Config{
		Seed:          7,
		Mode:          rapilog.ModeRapiLog,
		Trace:         true,
		TraceCapacity: 1 << 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	if _, err := dep.Run(&rapilog.Stress{}, rapilog.RunnerConfig{
		Clients: 8, Duration: 2 * time.Second, Warmup: 200 * time.Millisecond,
	}); err != nil {
		log.Fatal(err)
	}

	// Dump the raw trace for offline inspection.
	f, err := os.Create("exposure-trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := dep.Obs.Tracer().Dump().WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("trace: %d events -> exposure-trace.json\n\n", dep.Obs.Tracer().Emitted())

	// Replay the trace into the exposure audit.
	rep, err := dep.AuditExposure()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buffer bound:  %d KiB (lesser of configured MaxBuffer and SafeBufferSize)\n", rep.Bound/1024)
	fmt.Printf("peak exposure: %d KiB at t=%v\n", rep.PeakBytes/1024, rep.PeakAt)
	fmt.Printf("acked %d KiB, drained %d KiB, dumped %d KiB, in flight %d KiB\n",
		rep.AckedBytes/1024, rep.DurableBytes/1024, rep.DumpedBytes/1024, rep.OutstandingBytes/1024)
	if rep.AckToDurable.Count() > 0 {
		fmt.Printf("ack→durable:   p50=%v p99=%v max=%v\n",
			rep.AckToDurable.Quantile(0.50).Round(time.Millisecond),
			rep.AckToDurable.Quantile(0.99).Round(time.Millisecond),
			rep.AckToDurable.Max().Round(time.Millisecond))
	}
	fmt.Println()
	fmt.Println(rep.Verdict())
	if rep.Violated() {
		fmt.Println("=> exposure exceeded the provable bound: this configuration could lose data")
		os.Exit(1)
	}
	fmt.Println("=> every acknowledged byte stayed within what the hold-up window can dump")
}
