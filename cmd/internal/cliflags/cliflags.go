// Package cliflags declares, once, the deployment flags rapilog-sim and
// rapilog-fault share — their names, defaults, validation and the
// rapilog.Config they describe — and the JSON artifact writer every CLI uses.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
)

// Deployment holds the parsed shared flags.
type Deployment struct {
	Mode       string
	Shards     int
	Engine     string
	Replicas   int
	AckPolicy  string
	Quorum     int
	NetLatency time.Duration
	// Artifact destinations; empty means "don't write".
	TraceOut, MetricsOut, FlightOut string
}

// Usage is the help text that differs by tool: what -shards restricts, and
// whose trace, metrics and flight record the artifact flags write.
type Usage struct {
	Shards, TraceOut, MetricsOut, FlightOut string
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet, u Usage) *Deployment {
	d := &Deployment{}
	modes := make([]string, len(rapilog.Modes))
	for i, m := range rapilog.Modes {
		modes[i] = string(m)
	}
	fs.StringVar(&d.Mode, "mode", "rapilog", strings.Join(modes, " | "))
	fs.IntVar(&d.Shards, "shards", 0, u.Shards)
	fs.StringVar(&d.Engine, "engine", "pg", "engine personality: pg | my | cx")
	fs.IntVar(&d.Replicas, "replicas", 0, "standby replicas the log is shipped to (0 = none; a quorum or remote-only -ack-policy defaults it to 2)")
	fs.StringVar(&d.AckPolicy, "ack-policy", "local", "commit ack policy: local | quorum | remote-only")
	fs.IntVar(&d.Quorum, "quorum", 0, "replicas that must hold a commit before it acks (quorum/remote-only; default 1)")
	fs.DurationVar(&d.NetLatency, "net-latency", 0, "fabric link latency (default 200µs)")
	fs.StringVar(&d.TraceOut, "trace-out", "", u.TraceOut)
	fs.StringVar(&d.MetricsOut, "metrics-out", "", u.MetricsOut)
	fs.StringVar(&d.FlightOut, "flight-out", "", u.FlightOut)
	return d
}

// Config validates the flags and builds the deployment they describe,
// resolved (rapilog.Config.Normalize): what it reports — the standby count a
// quorum policy implies, say — is what the machine runs. Trace and Flight
// follow -trace-out and -flight-out; callers with further reasons to trace
// OR them in.
func (d *Deployment) Config(seed int64) (rapilog.Config, error) {
	pers, ok := rapilog.Personalities[d.Engine]
	if !ok {
		return rapilog.Config{}, fmt.Errorf("unknown engine %q", d.Engine)
	}
	policy, err := rapilog.ParseAckPolicy(d.AckPolicy, d.Quorum)
	if err != nil {
		return rapilog.Config{}, err
	}
	cfg := rapilog.Config{
		Seed:        seed,
		Mode:        rapilog.Mode(d.Mode),
		Personality: pers,
		Shards:      d.Shards,
		Replicas:    d.Replicas,
		AckPolicy:   policy,
		Trace:       d.TraceOut != "",
		Flight:      d.FlightOut != "",
	}
	cfg.Net.Latency = d.NetLatency
	err = cfg.Normalize()
	return cfg, err
}

// WriteJSON streams one JSON document into path via write; an empty path
// writes nothing.
func WriteJSON(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
