package main

import (
	"os"
	"reflect"
	"regexp"
	"testing"
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
