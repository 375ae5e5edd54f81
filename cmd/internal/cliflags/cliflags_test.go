package cliflags

import (
	"flag"
	"strings"
	"testing"
)

// TestConfig is the flags → deployment table: every row is a command line and
// the resolved config it builds, or the error naming what is wrong with it.
// Replication is the standby count: a remote -ack-policy implies the default
// two, and a -quorum or -replicas no machine can honour is refused.
func TestConfig(t *testing.T) {
	for _, tc := range []struct {
		args     string
		mode     string
		replicas int
		policy   string
		err      string // substring; "" means accepted
	}{
		{args: "", mode: "rapilog", policy: "local"},
		{args: "-ack-policy quorum", mode: "rapilog", replicas: 2, policy: "quorum(1)"},
		{args: "-ack-policy quorum -quorum 2", mode: "rapilog", replicas: 2, policy: "quorum(2)"},
		{args: "-ack-policy remote-only", mode: "rapilog", replicas: 2, policy: "remote-only(1)"},
		{args: "-ack-policy quorum -quorum 3 -replicas 3", mode: "rapilog", replicas: 3, policy: "quorum(3)"},
		{args: "-replicas 3", mode: "rapilog", replicas: 3, policy: "local"},
		{args: "-mode virt-sync", mode: "virt-sync", policy: "local"},
		{args: "-quorum 2", err: "-quorum 2"},
		{args: "-ack-policy local -quorum 1", err: "-quorum 1"},
		{args: "-ack-policy quorum -quorum 3", err: "AckPolicy.K 3 exceeds Replicas 2"},
		{args: "-ack-policy quorum -quorum -1", err: "AckPolicy.K -1"},
		{args: "-replicas -1", err: "Replicas -1"},
		{args: "-mode virt-sync -replicas 2", err: "cannot replicate"},
		{args: "-mode rapilog-replica", err: "unknown mode"},
		{args: "-ack-policy majority", err: "unknown ack policy"},
		{args: "-engine oracle", err: "unknown engine"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		d := Register(fs, Usage{})
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		cfg, err := d.Config(1)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%q: err = %v, want an error with %q", tc.args, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if string(cfg.Mode) != tc.mode || cfg.Replicas != tc.replicas || cfg.AckPolicy.String() != tc.policy {
			t.Errorf("%q: mode %s, %d standbys, policy %v; want %s, %d, %s",
				tc.args, cfg.Mode, cfg.Replicas, cfg.AckPolicy, tc.mode, tc.replicas, tc.policy)
		}
	}
}
