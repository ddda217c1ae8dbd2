package main

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestDocsLinksResolve walks every markdown file in the repository and
// checks that the documents it points at exist: both real markdown links
// `[text](path)` and the backticked `path/to/FILE.md` convention the prose
// uses. A reference resolves if it exists relative to the referencing
// file's directory or to the repository root (the prose convention). This
// is the `make docs-check` gate — documentation that names a file that
// moved or was never written fails CI, not a reader.
func TestDocsLinksResolve(t *testing.T) {
	var mdFiles []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		mdFiles = append(mdFiles, m...)
	}
	if len(mdFiles) < 5 {
		t.Fatalf("found only %d markdown files — checker looking in the wrong place?", len(mdFiles))
	}

	linkRe := regexp.MustCompile(`\]\(([^)]+)\)`)
	tickRe := regexp.MustCompile("`([A-Za-z0-9_./-]+\\.md)`")

	resolves := func(from, ref string) bool {
		ref = strings.TrimSuffix(ref, "/")
		if _, err := os.Stat(filepath.Join(filepath.Dir(from), ref)); err == nil {
			return true
		}
		_, err := os.Stat(ref)
		return err == nil
	}

	for _, f := range mdFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var refs []string
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			ref := strings.TrimSpace(m[1])
			if strings.Contains(ref, "://") || strings.HasPrefix(ref, "mailto:") || strings.HasPrefix(ref, "#") {
				continue // external links and intra-doc anchors
			}
			if i := strings.IndexByte(ref, '#'); i >= 0 {
				ref = ref[:i]
			}
			if ref != "" {
				refs = append(refs, ref)
			}
		}
		for _, m := range tickRe.FindAllStringSubmatch(string(data), -1) {
			refs = append(refs, m[1])
		}
		for _, ref := range refs {
			if !resolves(f, ref) {
				t.Errorf("%s references %q, which does not exist", f, ref)
			}
		}
	}
}

// TestDocsFlagsExist checks that every flag the documentation passes to
// one of the four commands is still defined by that command: each `-flag`
// following gssim, gsbench, gscampaign or gsreport in the reference docs
// (README, EXPERIMENTS, DESIGN, docs/*), the verify skill notes, the
// Makefile, the CI workflow, a `//` comment in cmd/*/main.go or a `#`
// comment in a shipped .scn or .campaign spec must match a
// flag.*("name", …) call in cmd/<command>/*.go, and the flag a
// "| `-flag` |" table row documents must be some command's. gsreport
// defines no flags (it takes paths), so any documented `gsreport -x` is
// an error. The
// change log and roadmap are left out: they name flags that no longer, or
// do not yet, exist. This is the `make docs-check` gate against stale flag
// references after pruning.
func TestDocsFlagsExist(t *testing.T) {
	defRe := regexp.MustCompile(`flag\.[A-Z]\w*\((?:&[\w.]+, *)?"([^"]+)"`)
	defined := make(map[string]map[string]bool)
	for _, bin := range []string{"gssim", "gsbench", "gscampaign", "gsreport"} {
		srcs, err := filepath.Glob(filepath.Join("cmd", bin, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined[bin] = make(map[string]bool)
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range defRe.FindAllStringSubmatch(string(data), -1) {
				defined[bin][m[1]] = true
			}
		}
		if len(defined[bin]) == 0 && bin != "gsreport" {
			t.Fatalf("no flag definitions found for %s", bin)
		}
	}

	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile",
		filepath.Join(".github", "workflows", "ci.yml"),
		filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	for _, pat := range []string{
		filepath.Join("cmd", "*", "main.go"),
		filepath.Join("scenarios", "*.scn"),
		filepath.Join("scenarios", "*.campaign"),
		filepath.Join("bench", "*.campaign"),
	} {
		more, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, more...)
	}

	checked := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		switch filepath.Ext(f) {
		case ".go":
			data = lineComments(data, "//")
		case ".scn", ".campaign":
			data = lineComments(data, "#")
		}
		text := regexp.MustCompile(`\\\n[ \t]*`).ReplaceAllString(string(data), " ")
		for _, line := range strings.Split(text, "\n") {
			for _, ref := range docFlagRefs(line) {
				checked++
				if !defined[ref.bin][ref.flag] {
					t.Errorf("%s: %s -%s is not a flag of cmd/%s", f, ref.bin, ref.flag, ref.bin)
				}
			}
			// A flag table row names no command; its flag must be one of
			// some command's.
			if row, ok := strings.CutPrefix(line, "| `-"); ok {
				name := docFlagRe.FindStringSubmatch("-" + row)[1]
				checked++
				if !definedAnywhere(defined, name) {
					t.Errorf("%s: flag table row -%s is not a flag of any command", f, name)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d documented flags — scanner looking in the wrong place?", checked)
	}
}

// flagRef is one `-flag` a document passes to one of the commands.
type flagRef struct{ bin, flag string }

var (
	docCmdRe  = regexp.MustCompile(`\b(gssim|gsbench|gscampaign|gsreport)[ \t]+`)
	docFlagRe = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
)

// docFlagRefs returns the flags one line of documentation passes to the
// commands it names. The line is split at every command name, so each
// command's flags run up to the next command at most; within that, a
// command ends at a shell separator or with the code span it sits in.
func docFlagRefs(line string) []flagRef {
	var refs []flagRef
	cmds := docCmdRe.FindAllStringSubmatchIndex(line, -1)
	for i, m := range cmds {
		bin, args := line[m[2]:m[3]], line[m[1]:]
		if i+1 < len(cmds) {
			args = line[m[1]:cmds[i+1][0]]
		}
		for _, tok := range strings.Fields(args) {
			if strings.ContainsAny(tok[:1], "|;&<>#)") {
				break // the command ends at a shell separator
			}
			quoted := strings.IndexByte(tok, '`')
			if quoted >= 0 {
				tok = tok[:quoted]
			}
			if fm := docFlagRe.FindStringSubmatch(tok); fm != nil {
				refs = append(refs, flagRef{bin, fm[1]})
			}
			if quoted >= 0 {
				break // the command ends with its code span
			}
		}
	}
	return refs
}

// TestDocFlagRefs pins how docFlagRefs attributes flags to commands, a
// line naming two commands included: each command's flags are checked
// against its own binary.
func TestDocFlagRefs(t *testing.T) {
	cases := []struct {
		line string
		want []flagRef
	}{
		{"gssim -scale 0.1 -progress", []flagRef{{"gssim", "scale"}, {"gssim", "progress"}}},
		{"not a gssim mode: gsbench -exp runs it", []flagRef{{"gsbench", "exp"}}},
		{"gssim -chaos -seed 4 > a; gsreport -invariants a.json",
			[]flagRef{{"gssim", "chaos"}, {"gssim", "seed"}, {"gsreport", "invariants"}}},
		{"`gsbench -exp table1` then `gsreport -runlog x`",
			[]flagRef{{"gsbench", "exp"}, {"gsreport", "runlog"}}},
		{"run gscampaign -spec s -dir d, then gsreport -campaign d",
			[]flagRef{{"gscampaign", "spec"}, {"gscampaign", "dir"}, {"gsreport", "campaign"}}},
		{"gssim | gsreport -runlog -", []flagRef{{"gsreport", "runlog"}}},
		{"no command here -flag", nil},
	}
	for _, c := range cases {
		if got := docFlagRefs(c.line); !reflect.DeepEqual(got, c.want) {
			t.Errorf("docFlagRefs(%q) = %v, want %v", c.line, got, c.want)
		}
	}
}

// definedAnywhere reports whether any command defines the flag name.
func definedAnywhere(defined map[string]map[string]bool, name string) bool {
	for _, flags := range defined {
		if flags[name] {
			return true
		}
	}
	return false
}

// lineComments keeps the text of a file's full-line comments (those
// starting with prefix), one per line, so usage examples in Go package
// docs and spec-file headers are checked and code or keys are not.
func lineComments(src []byte, prefix string) []byte {
	var out []string
	for _, line := range strings.Split(string(src), "\n") {
		if c, ok := strings.CutPrefix(strings.TrimSpace(line), prefix); ok {
			out = append(out, c)
		}
	}
	return []byte(strings.Join(out, "\n"))
}
