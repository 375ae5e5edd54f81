package rapilog_test

import (
	"fmt"
	"time"

	"repro"
)

// Example builds a RapiLog deployment, commits transactions that are
// durable the instant Commit returns, pulls the plug, recovers, and audits
// every acknowledgement. The simulation is deterministic, so this output
// is exact.
func Example() {
	dep, err := rapilog.New(rapilog.Config{Seed: 1, Mode: rapilog.ModeRapiLog})
	if err != nil {
		panic(err)
	}
	defer dep.Close()
	journal := rapilog.NewJournal()

	dep.S.Spawn(dep.Plat.Domain(), "db", func(p *rapilog.Proc) {
		e, err := dep.Boot(p)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 25; i++ {
			tx := e.Begin(p)
			key := fmt.Sprintf("order-%02d", i)
			if err := tx.Put(key, []byte("paid")); err != nil {
				panic(err)
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
			journal.Add(key, []byte("paid"))
		}
		dep.CutPower()
		p.Sleep(time.Hour) // dies with the machine
	})

	dep.S.Spawn(nil, "operator", func(p *rapilog.Proc) {
		p.Sleep(5 * time.Second)
		if _, err := dep.RecoverAfterPower(p); err != nil {
			panic(err)
		}
		dep.S.Spawn(dep.Plat.Domain(), "db2", func(p *rapilog.Proc) {
			e, err := dep.Boot(p)
			if err != nil {
				panic(err)
			}
			res, err := journal.Verify(p, e)
			if err != nil {
				panic(err)
			}
			fmt.Println(res)
		})
	})

	if err := dep.S.RunFor(time.Minute); err != nil {
		panic(err)
	}
	// Output: journal verify: 25 acked transactions, all durable
}
