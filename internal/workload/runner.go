package workload

import (
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Workload is a benchmark driver: load the schema once, then run
// transactions one at a time per client.
type Workload interface {
	Name() string
	Load(p *sim.Proc, e *engine.Engine) error
	Do(p *sim.Proc, e *engine.Engine, j *Journal) error
}

// DoAs runs one transaction of w on behalf of the given client. Stress
// partitions its keys by client id so that its clients never conflict, which
// the Workload interface has no room for: every client loop dispatches
// through here instead of asserting the type itself.
func DoAs(p *sim.Proc, e *engine.Engine, w Workload, j *Journal, client int) error {
	if st, ok := w.(*Stress); ok {
		return st.DoAs(p, e, j, client)
	}
	return w.Do(p, e, j)
}

// RunnerConfig parameterises a client pool run.
type RunnerConfig struct {
	Clients  int           // default 1
	Duration time.Duration // virtual time; default 10s
	Warmup   time.Duration // excluded from stats; default 0
	// Retries bounds lock-timeout retries per transaction; default 3.
	Retries int
	// Journal, if non-nil, records acked obligations for later
	// verification.
	Journal *Journal
}

func (c *RunnerConfig) applyDefaults() {
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
}

// RunResult summarises a client pool run.
type RunResult struct {
	Committed  int64
	Aborted    int64
	Duration   time.Duration
	TxnLatency *metrics.Histogram
}

// TPS returns committed transactions per second of measured time.
func (r RunResult) TPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Duration.Seconds()
}

// RunClients drives w against e with a closed-loop client pool (no think
// time — the paper's saturation-throughput methodology) in the given
// domain. It blocks the calling process until the measurement interval
// ends; client processes stop at the interval edge. If the domain dies
// (crash injection), clients die with it and the partial result stands.
func RunClients(p *sim.Proc, dom *sim.Domain, e *engine.Engine, w Workload, cfg RunnerConfig) RunResult {
	cfg.applyDefaults()
	s := p.Sim()
	res := RunResult{TxnLatency: metrics.NewHistogram(w.Name() + ".txn")}
	measureStart := s.Now().Add(cfg.Warmup)
	deadline := measureStart.Add(cfg.Duration)
	done := s.NewEvent(w.Name() + ".done")
	running := cfg.Clients

	for c := 0; c < cfg.Clients; c++ {
		client := c
		s.Spawn(dom, w.Name()+".client", func(cp *sim.Proc) {
			defer func() {
				running--
				if running == 0 {
					done.Fire()
				}
			}()
			for cp.Now() < deadline {
				start := cp.Now()
				err := doWithRetry(cp, e, w, cfg, client)
				measured := start >= measureStart
				if err != nil {
					if measured {
						res.Aborted++
					}
					continue
				}
				if measured {
					res.Committed++
					res.TxnLatency.Observe(cp.Now().Sub(start))
				}
			}
		})
	}
	// Wait for the clients, but never longer than the deadline plus slack:
	// if the domain was killed, the clients are gone and the event will
	// not fire.
	if !done.Fired() {
		done.WaitTimeout(p, cfg.Warmup+cfg.Duration+time.Second)
	}
	end := s.Now()
	if end > deadline {
		end = deadline
	}
	if end > measureStart {
		res.Duration = end.Sub(measureStart)
	}
	return res
}

func doWithRetry(cp *sim.Proc, e *engine.Engine, w Workload, cfg RunnerConfig, client int) error {
	var err error
	for attempt := 0; attempt <= cfg.Retries; attempt++ {
		if err = DoAs(cp, e, w, cfg.Journal, client); err == nil {
			return nil
		}
		if !errors.Is(err, engine.ErrLockTimeout) && !errors.Is(err, engine.ErrDeadlock) {
			return err
		}
		// Deadlock victim: back off briefly and retry.
		cp.Sleep(time.Duration(100+cp.Sim().Rand().Intn(900)) * time.Microsecond)
	}
	return err
}
