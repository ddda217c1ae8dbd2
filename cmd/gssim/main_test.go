package main

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/experiment"
)

// TestUnreadFlags checks each mode rejects the flags it would otherwise
// silently ignore, and accepts its own flags plus the profiling flags.
func TestUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		mode string
		set  []string
		want []string
	}{
		{"single", []string{"cca", "loss", "scale", "seed", "system"}, nil},
		{"single", []string{"cpuprofile", "memprofile", "probe", "probe-out"}, nil},
		{"single", []string{"chaos-runs", "scale", "workers"}, []string{"chaos-runs", "workers"}},
		{"scenario", []string{"cache", "progress", "runlog", "scenario"}, nil},
		{"scenario", []string{"cpuprofile", "scenario"}, nil},
		{"scenario", []string{"loss", "scenario"}, []string{"loss"}},
		{"scenario", []string{"scale", "scenario", "seed"}, []string{"scale", "seed"}},
		{"chaos", []string{"cache", "chaos", "chaos-runs", "invariants-out", "scale", "seed", "workers"}, nil},
		{"chaos", []string{"chaos", "scenario"}, []string{"scenario"}},
		{"chaos", []string{"chaos", "flows", "loss"}, []string{"flows", "loss"}},
	} {
		if got := unreadFlags(tc.mode, tc.set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s mode with %v: unread %v, want %v", tc.mode, tc.set, got, tc.want)
		}
	}
}

// TestEveryFlagHasAMode checks modeFlags covers every flag main defines, so
// no flag is rejected in every mode.
func TestEveryFlagHasAMode(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defs := regexp.MustCompile(`flag\.[A-Z]\w*\((?:&[\w.]+, *)?"([^"]+)"`).FindAllStringSubmatch(string(src), -1)
	if len(defs) < 30 {
		t.Fatalf("found only %d flag definitions", len(defs))
	}
	for _, d := range defs {
		read := false
		for mode := range modeFlags {
			read = read || len(unreadFlags(mode, []string{d[1]})) == 0
		}
		if !read {
			t.Errorf("flag -%s is read by no mode", d[1])
		}
	}
}

// TestCheckPopulation checks out-of-range population flags are rejected
// by name, with the bounds a scenario file's [population] section holds,
// instead of silently running the classic or default configuration.
func TestCheckPopulation(t *testing.T) {
	for _, tc := range []struct {
		pop  experiment.FlowPopulation
		want string
	}{
		{experiment.FlowPopulation{}, ""},
		{experiment.FlowPopulation{Flows: 200, Streams: 2, MeanOn: time.Second, MeanOff: 24 * time.Hour}, ""},
		{experiment.FlowPopulation{Flows: -3}, "-flows -3 outside [0,100000]"},
		{experiment.FlowPopulation{Flows: 100001}, "-flows 100001 outside [0,100000]"},
		{experiment.FlowPopulation{Flows: 4, Streams: -2}, "-streams -2 outside [0,100000]"},
		{experiment.FlowPopulation{Flows: 4, MeanOn: -2 * time.Second}, "-flow-on -2s outside [0,24h]"},
		{experiment.FlowPopulation{Flows: 4, MeanOff: -time.Second}, "-flow-off -1s outside [0,24h]"},
		{experiment.FlowPopulation{Flows: 4, MeanOff: 25 * time.Hour}, "-flow-off 25h0m0s outside [0,24h]"},
	} {
		err := checkPopulation(tc.pop)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("checkPopulation(%+v) = %v, want %q", tc.pop, err, tc.want)
		}
	}
}

// TestCheckNames checks an unknown -system, -cca or -aqm name is rejected
// by flag before any run, instead of panicking inside it.
func TestCheckNames(t *testing.T) {
	for _, tc := range []struct {
		system, cca, aqm string
		want             string
	}{
		{"stadia", "cubic", "droptail", ""},
		{"luna", "cubic,bbr", "fq_codel", ""},
		{"geforce", "none", "codel", ""},
		{"geforce", "", "codel", ""},
		{"nope", "cubic", "droptail", `-system: unknown system "nope" (want stadia, geforce, or luna)`},
		{"stadia", "quic", "droptail", `-cca: unknown cca "quic"`},
		{"stadia", "cubic,nope", "droptail", `-cca: unknown cca "nope"`},
		{"stadia", "cubic,none", "droptail", `-cca: unknown cca "none"`},
		{"stadia", "cubic", "nope", `-aqm: unknown aqm "nope" (want droptail, codel, or fq_codel)`},
	} {
		err := checkNames(tc.system, tc.cca, tc.aqm)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("checkNames(%q, %q, %q) = %v, want %q", tc.system, tc.cca, tc.aqm, err, tc.want)
		}
	}
}
