package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dram"
)

// TestCheckFlags pins the flag boundary: values that used to panic deep in
// workload construction (-cores 0), alias silently onto another row (-row
// out of the bank), run unbounded (-requests below 1), be accepted
// silently (-timeline-windows below 0) or be read as "all CPUs" (-parallel
// below 0) are rejected with an error naming the flag.
func TestCheckFlags(t *testing.T) {
	p := dram.DDR4_2400()
	last := p.RowsPerBank - 1
	cases := []struct {
		workload string
		cores    int
		row      int
		requests int64
		windows  int
		workers  int
		wantErr  string // "" = accepted
	}{
		{"S3", 4, 5000, 1000, 0, 0, ""},
		{"mix-high", 1, 5000, 1000, 0, 0, ""},
		{"S3", 4, 0, 1000, 0, 0, ""},
		{"S3", 4, last, 1000, 0, 0, ""},
		{"double-sided", 4, 1, 1000, 0, 0, ""},
		{"double-sided", 4, last - 1, 1000, 0, 0, ""},
		{"mix-high", 0, 5000, 1000, 0, 0, "-cores"},
		{"mix-high", -3, 5000, 1000, 0, 0, "-cores"},
		{"S3", 4, 99999999, 1000, 0, 0, "-row"},
		{"S3", 4, -5, 1000, 0, 0, "-row"},
		{"S3", 4, last + 1, 1000, 0, 0, "-row"},
		{"double-sided", 4, 0, 1000, 0, 0, "-row"},
		{"double-sided", 4, last, 1000, 0, 0, "-row"},
		{"S3", 4, 5000, 1, 0, 0, ""},
		{"S3", 4, 5000, 1000, 3, 0, ""},
		{"S3", 4, 5000, 0, 0, 0, "-requests"},
		{"S3", 4, 5000, -5, 0, 0, "-requests"},
		{"S3", 4, 5000, 1000, -2, 0, "-timeline-windows"},
		{"S3", 4, 5000, 1000, 0, 1, ""},
		{"S3", 4, 5000, 1000, 0, -1, "-parallel"},
	}
	for _, c := range cases {
		err := checkFlags(c.workload, c.cores, c.row, c.requests, c.windows, c.workers, p)
		flags := fmt.Sprintf("%s -cores %d -row %d -requests %d -timeline-windows %d -parallel %d",
			c.workload, c.cores, c.row, c.requests, c.windows, c.workers)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", flags, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one naming %s", flags, err, c.wantErr)
		}
	}
}
