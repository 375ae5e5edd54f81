// Power-failure walk-through: a narrated plug-pull. Tells the whole
// emergency sequence from the typed trace: AC loss, the power-fail
// interrupt starting the hypervisor's sequential dump, the dump racing the
// PSU hold-up window, DC death, power's return and the boot-time dump
// replay.
//
//	go run ./examples/powerfail
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	dep, err := rapilog.New(rapilog.Config{
		Seed:  3,
		Mode:  rapilog.ModeRapiLog,
		PSU:   rapilog.PSUTypical, // 40–70 ms hold-up: a tight but safe race
		Trace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	told := 0 // power-fail events already narrated
	narrate := func() {
		n := 0
		for _, e := range dep.Obs.Tracer().Events() {
			if line := storyLine(e); line != "" {
				if n++; n > told {
					fmt.Printf("  [%12v] %s\n", e.At, line)
				}
			}
		}
		told = n
	}
	fmt.Printf("PSU %q guarantees %v of ride-through; the safe buffer bound is %d KiB\n\n",
		dep.Cfg.PSU.Name, dep.Cfg.PSU.HoldupMin, dep.Logger.MaxBuffer()/1024)

	journal := rapilog.NewJournal()
	w := &rapilog.Stress{ValueSize: 1024}

	dep.S.Spawn(dep.Plat.Domain(), "db", func(p *rapilog.Proc) {
		e, err := dep.Boot(p)
		if err != nil {
			log.Fatalf("boot: %v", err)
		}
		fmt.Println("database up; committing under load...")
		for i := 0; i < 400; i++ {
			if err := w.Do(p, e, journal); err != nil {
				log.Fatalf("txn: %v", err)
			}
		}
		fmt.Printf("\n%d commits acknowledged, %d KiB still buffered in the hypervisor\n",
			journal.Len(), dep.Logger.BufferedBytes()/1024)
		fmt.Println("pulling the plug NOW:")
		dep.CutPower()
		p.Sleep(time.Hour)
	})

	dep.S.Spawn(nil, "operator", func(p *rapilog.Proc) {
		p.Sleep(3 * time.Second)
		narrate()
		fmt.Println("\nmains back; machine boots:")
		rep, err := dep.RecoverAfterPower(p)
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		narrate()
		fmt.Printf("  hypervisor firmware replayed the dump zone: %d entries, %d bytes, torn=%v\n",
			rep.Entries(), rep.Bytes(), rep.Torn())
		dep.S.Spawn(dep.Plat.Domain(), "db-reborn", func(p *rapilog.Proc) {
			e, err := dep.Boot(p)
			if err != nil {
				log.Fatalf("recovery boot: %v", err)
			}
			fmt.Println("  database WAL recovery complete")
			res, err := journal.Verify(p, e)
			if err != nil {
				log.Fatalf("audit: %v", err)
			}
			fmt.Printf("\nverdict: %s\n", res)
		})
	})

	if err := dep.S.RunFor(time.Minute); err != nil {
		log.Fatal(err)
	}
}

// storyLine narrates one power-fail event of the trace, or returns "" for
// any other kind.
func storyLine(e rapilog.TraceEvent) string {
	switch e.Kind.String() {
	case "power_fail":
		return fmt.Sprintf("AC lost; hold-up window %v", time.Duration(e.Arg1))
	case "dump_start":
		return fmt.Sprintf("power-fail interrupt: dumping %d entries (%d bytes buffered)", e.Arg1, e.Arg2)
	case "dump_done":
		return fmt.Sprintf("dump done: %d entries, %d bytes in the dump zone", e.Arg1, e.Arg2)
	case "power_dc_loss":
		return "DC power lost"
	case "power_restore":
		return "power restored"
	}
	return ""
}
