package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestCheckFlags pins the flag boundary: -requests 0 keeps the scale's
// default, while a negative -requests (which used to become the default
// silently), a negative -timeline-windows and a negative -parallel (which
// used to mean "all CPUs") are rejected with an error naming the flag.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		requests int64
		windows  int
		workers  int
		wantErr  string // "" = accepted
	}{
		{0, 0, 0, ""},
		{8000, 3, 1, ""},
		{-5, 0, 0, "-requests"},
		{0, -1, 0, "-timeline-windows"},
		{0, 0, -1, "-parallel"},
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
