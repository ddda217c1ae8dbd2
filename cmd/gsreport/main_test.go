package main

import (
	"reflect"
	"strings"
	"testing"
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
