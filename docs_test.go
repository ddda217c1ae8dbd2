package main

import (
	"os"
	"path/filepath"
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
// (README, EXPERIMENTS, DESIGN, docs/*), the Makefile or the CI workflow
// must match a flag.*("name", …) call in cmd/<command>/*.go. The change
// log and roadmap are left out: they name flags that no longer, or do not
// yet, exist. This is the `make docs-check` gate against stale flag
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
		if len(defined[bin]) == 0 {
			t.Fatalf("no flag definitions found for %s", bin)
		}
	}

	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile",
		filepath.Join(".github", "workflows", "ci.yml"))

	cmdRe := regexp.MustCompile(`\b(gssim|gsbench|gscampaign|gsreport)[ \t]+(.*)`)
	flagRe := regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	checked := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := regexp.MustCompile(`\\\n[ \t]*`).ReplaceAllString(string(data), " ")
		for _, line := range strings.Split(text, "\n") {
			for _, m := range cmdRe.FindAllStringSubmatch(line, -1) {
				bin := m[1]
				for _, tok := range strings.Fields(m[2]) {
					if strings.ContainsAny(tok[:1], "|;&<>#)") {
						break // the command ends at a shell separator
					}
					quoted := strings.IndexByte(tok, '`')
					if quoted >= 0 {
						tok = tok[:quoted]
					}
					if fm := flagRe.FindStringSubmatch(tok); fm != nil {
						checked++
						if !defined[bin][fm[1]] {
							t.Errorf("%s: %s -%s is not a flag of cmd/%s", f, bin, fm[1], bin)
						}
					}
					if quoted >= 0 {
						break // the command ends with its code span
					}
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d documented flags — scanner looking in the wrong place?", checked)
	}
}
