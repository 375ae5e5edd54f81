// Guest-crash demonstration: the verification argument in action. The
// guest OS (and the database with it) dies mid-load while log data is
// still buffered in the hypervisor. Because the hypervisor is dependable —
// the property formal verification buys — it keeps draining, and the
// rebooted database finds every acknowledged commit. The same scenario is
// then repeated on the unsafe native-async baseline, which loses data.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	fmt.Println("scenario 1: RapiLog — guest OS crashes with data buffered in the hypervisor")
	lost := scenario(rapilog.ModeRapiLog)
	fmt.Printf("  => %d acknowledged commits lost\n\n", lost)

	fmt.Println("scenario 2: native-async — the same crash with commits buffered in the OS")
	lost = scenario(rapilog.ModeNativeAsync)
	fmt.Printf("  => %d acknowledged commits lost\n\n", lost)

	fmt.Println("the difference IS the paper: buffered log data survives a software crash")
	fmt.Println("only when it lives in a layer that provably does not crash with it.")
}

func scenario(mode rapilog.Mode) int {
	dep, err := rapilog.New(rapilog.Config{Seed: 11, Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	journal := rapilog.NewJournal()
	w := &rapilog.Stress{}
	crashed := dep.S.NewEvent("crashed")

	dep.S.Spawn(dep.Plat.Domain(), "db", func(p *rapilog.Proc) {
		e, err := dep.Boot(p)
		if err != nil {
			log.Fatalf("boot: %v", err)
		}
		for i := 0; i < 500; i++ {
			if err := w.Do(p, e, journal); err != nil {
				log.Fatalf("txn: %v", err)
			}
		}
		fmt.Printf("  %d commits acknowledged; crashing the OS now\n", journal.Len())
		crashed.Fire()
		dep.CrashOS()
	})

	var missing int
	dep.S.Spawn(nil, "operator", func(p *rapilog.Proc) {
		crashed.Wait(p)
		p.Sleep(time.Second) // the hypervisor (if any) drains meanwhile
		dep.RebootAfterCrash()
		dep.S.Spawn(dep.Plat.Domain(), "db-reborn", func(p *rapilog.Proc) {
			e, err := dep.Boot(p)
			if err != nil {
				log.Fatalf("recovery boot: %v", err)
			}
			res, err := journal.Verify(p, e)
			if err != nil {
				log.Fatalf("audit: %v", err)
			}
			fmt.Printf("  audit after reboot: %s\n", res)
			missing = res.Missing
		})
	})

	if err := dep.S.RunFor(time.Minute); err != nil {
		log.Fatal(err)
	}
	return missing
}
