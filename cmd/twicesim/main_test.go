package main

import (
	"strings"
	"testing"

	"repro/internal/dram"
)

// TestCheckFlags pins the flag boundary: values that used to panic deep in
// workload construction (-cores 0) or alias silently onto another row
// (-row out of the bank) are rejected with an error naming the flag.
func TestCheckFlags(t *testing.T) {
	p := dram.DDR4_2400()
	last := p.RowsPerBank - 1
	cases := []struct {
		workload string
		cores    int
		row      int
		wantErr  string // "" = accepted
	}{
		{"S3", 4, 5000, ""},
		{"mix-high", 1, 5000, ""},
		{"S3", 4, 0, ""},
		{"S3", 4, last, ""},
		{"double-sided", 4, 1, ""},
		{"double-sided", 4, last - 1, ""},
		{"mix-high", 0, 5000, "-cores"},
		{"mix-high", -3, 5000, "-cores"},
		{"S3", 4, 99999999, "-row"},
		{"S3", 4, -5, "-row"},
		{"S3", 4, last + 1, "-row"},
		{"double-sided", 4, 0, "-row"},
		{"double-sided", 4, last, "-row"},
	}
	for _, c := range cases {
		err := checkFlags(c.workload, c.cores, c.row, p)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s -cores %d -row %d: unexpected error %v", c.workload, c.cores, c.row, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s -cores %d -row %d: error %v, want one naming %s", c.workload, c.cores, c.row, err, c.wantErr)
		}
	}
}
