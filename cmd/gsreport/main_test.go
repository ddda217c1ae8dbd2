package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestReadCSV: empty cells read as 0, but a cell that is not a number or a
// row of the wrong width is an error naming where it is, never a silent 0.
func TestReadCSV(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    map[string][]float64
		wantErr string
	}{
		{
			name: "numbers",
			in:   "t_sec,game_mbps\n0,12.5\n0.5,1e1\n",
			want: map[string][]float64{"t_sec": {0, 0.5}, "game_mbps": {12.5, 10}},
		},
		{
			name: "empty cells of a ragged column",
			in:   "t_sec,game_mbps,rtt_ms\n0,12.5,40\n0.5,13,\n1,,\n",
			want: map[string][]float64{
				"t_sec": {0, 0.5, 1}, "game_mbps": {12.5, 13, 0}, "rtt_ms": {40, 0, 0},
			},
		},
		{
			name:    "malformed cell",
			in:      "t_sec,game_mbps\n0,12.5\n0.5,12.5x\n",
			wantErr: `line 3, column 2 (game_mbps): "12.5x" is not a number`,
		},
		{
			name:    "short row",
			in:      "t_sec,game_mbps,rtt_ms\n0,12.5\n",
			wantErr: "line 2: 2 fields, header has 3",
		},
		{
			name:    "long row",
			in:      "t_sec,game_mbps\n0,12.5,40\n",
			wantErr: "line 2: 3 fields, header has 2",
		},
		{
			name:    "empty file",
			in:      "",
			wantErr: "empty file",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readCSV(strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("columns %v, want %v", got, tc.want)
			}
		})
	}
}

// TestProbeReportsRejectMalformedCells: the probe summaries read through
// the same reader as the trace CSV, so a malformed numeric cell or a row of
// the wrong width is an error naming where it is, never a silent 0.
func TestProbeReportsRejectMalformedCells(t *testing.T) {
	const (
		ccHeader    = "flow,alg,t_s,cwnd_bytes,inflight_bytes,srtt_us,mode\n"
		queueHeader = "queue,t_s,packets,bytes,sojourn_us,cum_drops\n"
		dropsHeader = "queue,t_s,flow,id,size\n"
	)
	cases := []struct {
		name    string
		report  func(path string) error
		in      string
		wantErr string
	}{
		{
			name:   "cc well formed",
			report: reportCC,
			in:     ccHeader + "tcp0,cubic,0.1,14600,2920,40000,\ntcp0,cubic,0.2,29200,,41000,\n",
		},
		{
			name:    "cc malformed cwnd",
			report:  reportCC,
			in:      ccHeader + "tcp0,cubic,0.1,14600,2920,40000,\ntcp0,cubic,0.2,6o100,2920,41000,\n",
			wantErr: `line 3, column 4 (cwnd_bytes): "6o100" is not a number`,
		},
		{
			name:    "cc row missing its last field",
			report:  reportCC,
			in:      ccHeader + "tcp0,cubic,0.1,14600,2920,40000\n",
			wantErr: "line 2: 6 fields, header has 7",
		},
		{
			name:   "queue well formed",
			report: reportQueue,
			in:     queueHeader + "bottleneck,0.1,3,4500,,0\nbottleneck,0.2,5,7500,1200,2\n",
		},
		{
			name:    "queue malformed depth",
			report:  reportQueue,
			in:      queueHeader + "bottleneck,0.1,3,45OO,,0\n",
			wantErr: `line 2, column 4 (bytes): "45OO" is not a number`,
		},
		{
			name:    "queue long row",
			report:  reportQueue,
			in:      queueHeader + "bottleneck,0.1,3,4500,,0,9\n",
			wantErr: "line 2: 7 fields, header has 6",
		},
		{
			name:    "drops malformed size",
			report:  reportDrops0,
			in:      dropsHeader + "bottleneck,0.1,game,1,1200\nbottleneck,0.2,game,2,12x0\n",
			wantErr: `line 3, column 5 (size): "12x0" is not a number`,
		},
		{
			name:    "drops missing column",
			report:  reportDrops0,
			in:      "queue,t_s,flow,id\nbottleneck,0.1,game,1\n",
			wantErr: "no size column",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "probe.csv")
			if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
				t.Fatal(err)
			}
			err := tc.report(path)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if want := path + ": " + tc.wantErr; err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}

// reportDrops0 is reportDrops with its default episode gap.
func reportDrops0(path string) error { return reportDrops(path, 100*time.Millisecond) }
