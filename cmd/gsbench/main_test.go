package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseExps checks every -exp name is resolved before the first run:
// a typo anywhere in the list fails up front instead of after the sweeps
// the names before it need.
func TestParseExps(t *testing.T) {
	for _, tc := range []struct {
		exp     string
		want    []string
		wantErr string
	}{
		{exp: "figure3", want: []string{"figure3"}},
		{exp: "figure3, table4", want: []string{"figure3", "table4"}},
		{exp: "all", want: []string{"table1", "figure2", "figure3", "figure4",
			"table3", "table4", "table5", "loss", "responserecovery", "summary"}},
		{exp: "figure3,tabel4", wantErr: `unknown experiment "tabel4"`},
		{exp: "tabel4,figure3,fig5", wantErr: `unknown experiment "tabel4", "fig5"`},
		{exp: "table1,all", wantErr: `unknown experiment "all"`},
		{exp: "", wantErr: `unknown experiment ""`},
	} {
		got, err := parseExps(tc.exp)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseExps(%q) error = %v, want %q", tc.exp, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseExps(%q) = %q, %v; want %q", tc.exp, got, err, tc.want)
		}
	}
	for _, name := range strings.Split("table1,figure2,figure3,figure4,table3,table4,table5,loss,harm,mix,flowcount,aqmcmp,ablation,responserecovery,qoe,summary", ",") {
		if _, err := parseExps(name); err != nil {
			t.Errorf("documented experiment %q rejected: %v", name, err)
		}
	}
}
