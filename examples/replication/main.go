// Replicated durability demonstration: standbys as the alternative
// durability domain. A quorum-ack deployment commits under load, a network
// partition stalls (rather than endangers) its acknowledgements, the heal
// catches the standbys back up — and then the worst case: the plug is
// pulled while the emergency-dump zone is broken, so the machine's entire
// local durability domain is gone. Recovery replays the log from the
// surviving standby and the audit finds every acknowledged commit.
//
//	go run ./examples/replication
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	cfg := rapilog.Config{
		Seed:      7,
		Mode:      rapilog.ModeRapiLog,
		Replicas:  2,
		AckPolicy: rapilog.AckQuorum(1),
	}
	cfg.DumpFault.Enabled = true // we will break the dump zone below
	dep, err := rapilog.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	// The local durability domain's last resort — the emergency dump zone —
	// fails every write from the start. Only the standbys can save us.
	dep.FaultyDump.AddBadRange(0, dep.DumpPart.Sectors(), false)

	journal := rapilog.NewJournal()
	w := &rapilog.Stress{}
	reg := dep.Obs.Registry()
	done := dep.S.NewEvent("done")

	dep.S.Spawn(dep.Plat.Domain(), "db", func(p *rapilog.Proc) {
		e, err := dep.Boot(p)
		if err != nil {
			log.Fatalf("boot: %v", err)
		}

		fmt.Println("phase 1: commit under quorum acks (every ack = a standby holds it)")
		for i := 0; i < 300; i++ {
			if err := w.Do(p, e, journal); err != nil {
				log.Fatalf("txn: %v", err)
			}
		}
		fmt.Printf("  %d commits acknowledged, replication lag %d records\n\n",
			journal.Len(), reg.Gauge("repl.lag").Value())

		fmt.Println("phase 2: partition the primary — quorum commits stall, they do not lie")
		before := reg.Snapshot()
		dep.Fabric.Isolate(rapilog.PrimaryEndpoint)
		start := p.Now()
		commitDone := dep.S.NewEvent("commit.done")
		dep.S.Spawn(dep.Plat.Domain(), "stalled-commit", func(cp *rapilog.Proc) {
			defer commitDone.Fire()
			if err := w.Do(cp, e, journal); err != nil {
				log.Fatalf("txn: %v", err)
			}
		})
		p.Sleep(100 * time.Millisecond)
		fmt.Printf("  100ms into the partition: commit still waiting (fired=%v)\n", commitDone.Fired())
		dep.Fabric.Heal()
		commitDone.Wait(p)
		fmt.Printf("  healed: the stalled commit acked after %v (a local ack takes ~µs)\n",
			p.Now().Sub(start).Round(time.Millisecond))

		p.Sleep(50 * time.Millisecond) // let the catch-up finish
		diff := reg.Snapshot().Diff(before)
		fmt.Println("  what the partition cost (snapshot diff across the window):")
		fmt.Printf("    records shipped +%d, resends +%d, partition drops +%d\n",
			diff.Counters["repl.shipped"], diff.Counters["repl.resends"],
			diff.Counters["net.partition_drops"])
		for _, s := range dep.Standbys {
			fmt.Printf("    %s applied +%d records\n", s.Name(),
				diff.Counters["repl."+s.Name()+".applied"])
		}
		fmt.Println()

		fmt.Println("phase 3: burst of commits, then the plug — with the dump zone broken")
		for i := 0; i < 200; i++ {
			if err := w.Do(p, e, journal); err != nil {
				log.Fatalf("txn: %v", err)
			}
		}
		fmt.Printf("  %d total acknowledged; cutting power NOW (emergency dump will fail)\n", journal.Len())
		done.Fire()
		dep.CutPower()
	})

	dep.S.Spawn(nil, "operator", func(p *rapilog.Proc) {
		done.Wait(p)
		p.Sleep(2 * time.Second) // hold-up window expires, machine is dark
		rep, err := dep.RecoverAfterPower(p)
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		fmt.Printf("  dump replay:    %d bytes (the zone was broken: %d dump failures)\n",
			rep.Bytes(), rep.DumpFailures())
		fmt.Printf("  %s\n", dep.LastReplicaReplay)
		dep.S.Spawn(dep.Plat.Domain(), "db2", func(p *rapilog.Proc) {
			e, err := dep.Boot(p)
			if err != nil {
				log.Fatalf("recovery boot: %v", err)
			}
			vr, err := journal.Verify(p, e)
			if err != nil {
				log.Fatalf("audit: %v", err)
			}
			fmt.Printf("\naudit: %d acknowledged commits, %d missing, %d mismatched\n",
				vr.Checked, vr.Missing, vr.Mismatched)
			fmt.Println("the machine and its dump zone died together; the standbys were the")
			fmt.Println("durability domain — that is what a quorum ack buys.")
		})
	})

	if err := dep.S.RunFor(10 * time.Minute); err != nil {
		log.Fatal(err)
	}
}
