package main

import (
	"fmt"
	"testing"
	"time"
)

// TestCheckDurations checks a -lease or -poll that is not positive is
// rejected by flag before any run, rather than left to the Worker, which
// replaces it with its default without a word.
func TestCheckDurations(t *testing.T) {
	for _, tc := range []struct {
		lease, poll time.Duration
		want        string
	}{
		{time.Minute, 200 * time.Millisecond, ""},
		{time.Second, time.Nanosecond, ""},
		{-5 * time.Second, time.Second, "-lease -5s must be positive"},
		{0, time.Second, "-lease 0s must be positive"},
		{time.Second, 0, "-poll 0s must be positive"},
		{time.Second, -time.Millisecond, "-poll -1ms must be positive"},
	} {
		err := checkDurations(tc.lease, tc.poll)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("checkDurations(%v, %v) = %v, want %q", tc.lease, tc.poll, err, tc.want)
		}
	}
}
