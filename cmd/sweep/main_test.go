package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestCheckFlags pins the flag boundary: a -requests budget below one (which
// would run every point to its simulated-time ceiling), a negative
// -timeline-windows (which used to give a full trace) and a negative
// -parallel (which used to mean "all CPUs") are rejected with an error
// naming the flag.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		requests int64
		windows  int
		workers  int
		wantErr  string // "" = accepted
	}{
		{150000, 0, 0, ""},
		{1, 3, 1, ""},
		{0, 0, 0, "-requests"},
		{-5, 0, 0, "-requests"},
		{1000, -2, 0, "-timeline-windows"},
		{1000, 0, -1, "-parallel"},
	}
	for _, c := range cases {
		err := checkFlags(c.requests, c.windows, c.workers)
		flags := fmt.Sprintf("-requests %d -timeline-windows %d -parallel %d", c.requests, c.windows, c.workers)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", flags, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one naming %s", flags, err, c.wantErr)
		}
	}
}
