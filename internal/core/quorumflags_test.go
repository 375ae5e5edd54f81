package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rig"
)

// TestValidateQuorumFlags: CLI quorum/replica combinations are vetted
// before any deployment is constructed — an unsatisfiable quorum or a
// negative count must fail as a usage error, not a deep rig failure. The
// pair takes the CLI's path: ParseAckPolicy reads -ack-policy quorum and
// -quorum, then rig.Config.Normalize resolves -replicas (0 = the default
// pool of 2 under a remote policy) and checks the pair.
func TestValidateQuorumFlags(t *testing.T) {
	cases := []struct {
		quorum, replicas int
		wantErr          string // substring; "" means accepted
	}{
		{0, 0, ""},
		{1, 0, ""}, // default replica pool of 2
		{2, 0, ""},
		{2, 2, ""},
		{3, 3, ""},
		{-1, 0, "negative"},
		{0, -2, "negative"},
		{3, 0, "exceeds"}, // over the default pool
		{3, 2, "exceeds"},
	}
	for _, c := range cases {
		policy, err := core.ParseAckPolicy("quorum", c.quorum)
		if err == nil {
			cfg := rig.Config{Replicas: c.replicas, AckPolicy: policy}
			err = cfg.Normalize()
		}
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("-quorum %d -replicas %d: %v", c.quorum, c.replicas, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("-quorum %d -replicas %d = %v, want error containing %q",
				c.quorum, c.replicas, err, c.wantErr)
		}
	}
}
