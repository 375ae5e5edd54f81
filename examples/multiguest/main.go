// Consolidation: several database VMs on one dependable hypervisor — the
// deployment the paper's approach naturally scales to. It is a sharded
// machine (Config.Shards): each guest is a log domain with its own spindle
// carrying its log, dump zone and data partitions, and its own RapiLog
// instance. On a power cut every instance's emergency dump races the same
// hold-up window in parallel on its own disk, so each buffer is sized by the
// N-sharer rule — smaller than a lone guest's — and every dump still lands.
//
//	go run ./examples/multiguest
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

const guests = 3

func main() {
	dep, err := rapilog.New(rapilog.Config{Seed: 5, Mode: rapilog.ModeRapiLog, Shards: guests, Cores: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	fmt.Printf("%d guests on one hypervisor, one RapiLog instance each (buffer bound %d KiB: %d dumps share one hold-up window)\n\n",
		guests, dep.Domains[0].Logger.MaxBuffer()/1024, guests)

	// Each tenant runs its own workload until the shared machine loses
	// power.
	journals := make([]*rapilog.Journal, guests)
	for i, d := range dep.Domains {
		journal := rapilog.NewJournal()
		journals[i] = journal
		dep.S.Spawn(d.Plat.Domain(), tenant(i), func(p *rapilog.Proc) {
			e, err := d.Boot(p)
			if err != nil {
				log.Fatalf("%s boot: %v", tenant(i), err)
			}
			w := &rapilog.Stress{ValueSize: 512}
			for {
				if err := w.Do(p, e, journal); err != nil {
					p.Sleep(time.Millisecond)
				}
			}
		})
	}

	// The plug is pulled on everyone at once.
	dep.S.After(500*time.Millisecond, func() { dep.CutPower() })

	dep.S.Spawn(nil, "operator", func(p *rapilog.Proc) {
		p.Sleep(3 * time.Second)
		rep, err := dep.RecoverAfterPower(p)
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		for i, d := range dep.Domains {
			dep.S.Spawn(d.Plat.Domain(), tenant(i)+"-recovery", func(p *rapilog.Proc) {
				e, err := d.Boot(p)
				if err != nil {
					log.Fatalf("%s boot: %v", tenant(i), err)
				}
				// Every ack a tenant saw, the hold-up window's included.
				res, err := journals[i].Verify(p, e)
				if err != nil {
					log.Fatalf("%s audit: %v", tenant(i), err)
				}
				fmt.Printf("%s: dump replayed %3d entries; %s\n", tenant(i), rep.Domains[i].Entries, res)
			})
		}
	})

	if err := dep.S.RunFor(time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nall tenants recovered independently: one verified buffer layer, many databases.")
}

func tenant(i int) string { return fmt.Sprintf("tenant%d", i) }
