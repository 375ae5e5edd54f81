package main

import (
	"strings"
	"testing"
	"time"
)

// An empty measurement used to run, print "throughput: 0 tps" and exit 0;
// each of the three flags that can ask for one is refused by name.
func TestCheckMeasurement(t *testing.T) {
	if err := checkMeasurement(1, time.Nanosecond, 0); err != nil {
		t.Fatalf("smallest real measurement refused: %v", err)
	}
	for _, tc := range []struct {
		clients          int
		duration, warmup time.Duration
		flag             string
	}{
		{0, time.Second, 0, "-clients"},
		{-1, time.Second, 0, "-clients"},
		{8, 0, 0, "-duration"},
		{8, -time.Second, 0, "-duration"},
		{8, time.Second, -time.Second, "-warmup"},
	} {
		err := checkMeasurement(tc.clients, tc.duration, tc.warmup)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("clients=%d duration=%v warmup=%v: got %v, want an error naming %s",
				tc.clients, tc.duration, tc.warmup, err, tc.flag)
		}
	}
}
