// Quickstart: the smallest complete RapiLog program.
//
// Build a simulated machine with the RapiLog configuration, commit a few
// transactions (each durable the instant Commit returns), pull the plug,
// recover, and verify that nothing acknowledged was lost.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	dep, err := rapilog.New(rapilog.Config{Seed: 1, Mode: rapilog.ModeRapiLog})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	fmt.Printf("deployment: %s mode, safe buffer bound %d KiB\n",
		dep.Cfg.Mode, dep.Logger.MaxBuffer()/1024)

	journal := rapilog.NewJournal()

	// Life 1: the database serves commits until the power dies.
	dep.S.Spawn(dep.Plat.Domain(), "db", func(p *rapilog.Proc) {
		e, err := dep.Boot(p)
		if err != nil {
			log.Fatalf("boot: %v", err)
		}
		for i := 0; i < 100; i++ {
			tx := e.Begin(p)
			key := fmt.Sprintf("order-%03d", i)
			if err := tx.Put(key, []byte("paid")); err != nil {
				log.Fatalf("put: %v", err)
			}
			if err := tx.Commit(); err != nil {
				log.Fatalf("commit: %v", err)
			}
			// Commit returned: the update is durable by contract. Record
			// the obligation in the (crash-proof, client-side) journal.
			journal.Add(key, []byte("paid"))
		}
		fmt.Printf("committed %d transactions in %v of virtual time — now pulling the plug\n",
			journal.Len(), p.Now())
		dep.CutPower()
		p.Sleep(time.Hour) // dies with the machine
	})

	// Operator: restore power, let the hypervisor replay its dump zone,
	// boot the database (WAL recovery), and audit every acknowledged
	// commit.
	dep.S.Spawn(nil, "operator", func(p *rapilog.Proc) {
		p.Sleep(5 * time.Second)
		rep, err := dep.RecoverAfterPower(p)
		if err != nil {
			log.Fatalf("power recovery: %v", err)
		}
		fmt.Printf("power restored; dump zone replayed %d entries (%d bytes)\n", rep.Entries(), rep.Bytes())
		dep.S.Spawn(dep.Plat.Domain(), "db-reborn", func(p *rapilog.Proc) {
			e, err := dep.Boot(p)
			if err != nil {
				log.Fatalf("recovery boot: %v", err)
			}
			res, err := journal.Verify(p, e)
			if err != nil {
				log.Fatalf("audit: %v", err)
			}
			fmt.Println(res)
		})
	})

	if err := dep.S.RunFor(time.Minute); err != nil {
		log.Fatal(err)
	}
}
