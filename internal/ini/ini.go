// Package ini is the line lexer under both declarative spec formats: the
// scenario files (.scn, internal/scenario) and the campaign files
// (.campaign, internal/campaign). It owns what the two grammars share —
// the size limits, comments, section headers, "key = value" lines,
// duplicate-key detection, "line N:" error positions and the name rule —
// and leaves the section and key vocabulary to each parser.
package ini

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Safety bounds. Specs are small human-written files; anything past these
// limits is hostile or corrupt input and is rejected rather than amplified
// into memory or CPU (both parsers' fuzz targets lean on this).
const (
	MaxBytes     = 1 << 20 // 1 MiB
	MaxLineBytes = 4096
)

// Grammar is one spec format's section and key vocabulary.
type Grammar struct {
	// Section opens a "[header]" line; header is the trimmed text between
	// the brackets. It returns the section kind, which later key errors
	// name, and the instance name ("" for a singleton section) that scopes
	// duplicate-key detection together with the kind.
	Section func(header string) (kind, name string, err error)
	// Key applies one "key = value" line of the current section. key is
	// lowercased; key and val are trimmed.
	Key func(kind, key, val string) error
	// Repeatable, when non-nil, names the keys exempt from duplicate-key
	// detection.
	Repeatable func(kind, key string) bool
}

// Lex reads a spec line by line and feeds it to g. A "#" starts a comment
// that runs to the end of the line; blank lines are skipped. Every error
// carries the position of the offending line.
func Lex(r io.Reader, g Grammar) error {
	var (
		kind, name    string
		seenKey       = map[string]bool{}
		lineNo, total int
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 256), MaxLineBytes)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		total += len(line) + 1
		if total > MaxBytes {
			return fmt.Errorf("line %d: spec exceeds %d bytes", lineNo, MaxBytes)
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return fmt.Errorf("line %d: unterminated section header %q", lineNo, line)
			}
			var err error
			if kind, name, err = g.Section(strings.TrimSpace(line[1 : len(line)-1])); err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
			continue
		}

		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("line %d: want \"key = value\", got %q", lineNo, line)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if kind == "" {
			return fmt.Errorf("line %d: %q outside any section", lineNo, key)
		}
		if g.Repeatable == nil || !g.Repeatable(kind, key) {
			id := kind + "\x00" + name + "\x00" + key
			if seenKey[id] {
				return fmt.Errorf("line %d: duplicate key %q in [%s]", lineNo, key, kind)
			}
			seenKey[id] = true
		}
		if err := g.Key(kind, key, val); err != nil {
			return fmt.Errorf("line %d: [%s] %s: %v", lineNo, kind, key, err)
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return fmt.Errorf("line %d: line exceeds %d bytes", lineNo+1, MaxLineBytes)
		}
		return err
	}
	return nil
}

// CheckName bounds a spec-supplied name (a link, flow, hop or campaign) to
// a short identifier-like token.
func CheckName(name string) error {
	if name == "" {
		return fmt.Errorf("missing")
	}
	if len(name) > 64 {
		return fmt.Errorf("%q longer than 64 bytes", name)
	}
	for _, r := range name {
		if !(r == '-' || r == '_' || r == '.' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')) {
			return fmt.Errorf("%q contains %q (want letters, digits, -_.)", name, r)
		}
	}
	return nil
}
