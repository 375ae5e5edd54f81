// Consolidation: several database VMs on one dependable hypervisor — the
// deployment the paper's approach naturally scales to. Each guest gets its
// own spindle with its own log, dump zone and data partitions, and its own
// RapiLog instance; on a power cut every instance's emergency dump races
// the same hold-up window in parallel on its own disk, so each sizing rule
// stays valid.
//
// This example wires the stack by hand from the library's components
// (machine, hypervisor, loggers, engines) rather than using the one-guest
// Deployment helper — a demonstration of the public API's composability.
//
//	go run ./examples/multiguest
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/hv"
	"repro/internal/power"
	"repro/internal/sim"
)

const guests = 3

func main() {
	s := sim.New(5)
	defer s.Close()
	machine := power.NewMachine(s, "consolidator", 8, rapilog.PSUMeasured)
	hyper := hv.New(machine, hv.Config{})

	type tenant struct {
		name    string
		hdd     *disk.HDD
		logP    *disk.Partition
		dumpP   *disk.Partition
		dataP   *disk.Partition
		logger  *core.Logger
		guest   *hv.Guest
		journal *rapilog.Journal
	}
	tenants := make([]*tenant, guests)
	for i := range tenants {
		name := fmt.Sprintf("tenant%d", i)
		hdd := disk.NewHDD(s, machine.HardwareDomain(), disk.HDDConfig{Name: name + "-disk"})
		machine.AttachDevice(hdd)
		logP, _ := disk.NewPartition(hdd, name+"-log", 0, 262144)
		dumpP, _ := disk.NewPartition(hdd, name+"-dump", 262144, 131072)
		dataP, _ := disk.NewPartition(hdd, name+"-data", 393216, hdd.Sectors()-393216)
		logger, err := core.NewLogger(machine, hyper.Domain(), logP, dumpP, core.Config{Name: name + "-rapilog"})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		tenants[i] = &tenant{
			name: name, hdd: hdd, logP: logP, dumpP: dumpP, dataP: dataP,
			logger:  logger,
			guest:   hyper.NewGuest(name, logger, dataP),
			journal: rapilog.NewJournal(),
		}
	}
	fmt.Printf("%d guests on one hypervisor, one RapiLog instance each (buffer bound %d KiB)\n\n",
		guests, tenants[0].logger.MaxBuffer()/1024)

	// Each tenant runs its own workload until the shared machine loses
	// power.
	for _, tn := range tenants {
		tn := tn
		s.Spawn(tn.guest.Domain(), tn.name, func(p *sim.Proc) {
			e, err := engine.Open(p, tn.guest, engine.Config{})
			if err != nil {
				log.Fatalf("%s boot: %v", tn.name, err)
			}
			w := &rapilog.Stress{ValueSize: 512}
			for {
				if err := w.Do(p, e, tn.journal); err != nil {
					p.Sleep(time.Millisecond)
				}
			}
		})
	}

	// The plug is pulled on everyone at once.
	s.After(500*time.Millisecond, func() { machine.CutPower() })

	s.Spawn(nil, "operator", func(p *sim.Proc) {
		p.Sleep(3 * time.Second)
		acked := make([]int, guests)
		for i, tn := range tenants {
			acked[i] = tn.journal.Len()
		}
		machine.RestorePower()
		hyper.Reboot()
		for i, tn := range tenants {
			tn := tn
			i := i
			boot := s.NewDomain(tn.name + "-boot")
			s.Spawn(boot, tn.name+"-fw", func(p *sim.Proc) {
				rep, err := core.Recover(p, tn.logP, tn.dumpP)
				if err != nil {
					log.Fatalf("%s dump recovery: %v", tn.name, err)
				}
				logger, err := core.NewLogger(machine, hyper.Domain(), tn.logP, tn.dumpP, core.Config{Name: tn.name + "-rapilog"})
				if err != nil {
					log.Fatalf("%s new logger: %v", tn.name, err)
				}
				tn.guest.Reboot()
				tn.guest.SetLogBacking(logger)
				s.Spawn(tn.guest.Domain(), tn.name+"-recovery", func(p *sim.Proc) {
					e, err := engine.Open(p, tn.guest, engine.Config{})
					if err != nil {
						log.Fatalf("%s recovery boot: %v", tn.name, err)
					}
					res, err := tn.journal.VerifyFirst(p, e, acked[i])
					if err != nil {
						log.Fatalf("%s audit: %v", tn.name, err)
					}
					fmt.Printf("%s: dump replayed %3d entries; %s\n", tn.name, rep.Entries, res)
				})
			})
		}
	})

	if err := s.RunFor(time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nall tenants recovered independently: one verified buffer layer, many databases.")
}
