package rules

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs are the documents that describe the code as it is.
var docs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

// A docSpan is one backticked span of a document, outside fenced blocks.
type docSpan struct {
	line    int
	text    string
	history bool // inside a section whose heading ends in "(history)"
}

var (
	heading  = regexp.MustCompile(`^(#+)\s+(.*)$`)
	codeSpan = regexp.MustCompile("`([^`]+)`")
)

// A docLine is one line of a markdown document.
type docLine struct {
	text    string
	fenced  bool // inside a fenced block, or its fence
	history bool // inside a section whose heading ends in "(history)"
}

func docLines(src string) []docLine {
	var lines []docLine
	fenced := false
	histLevel := 0 // the heading level of the history section we are in, or 0
	for _, line := range strings.Split(src, "\n") {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if fence {
			fenced = !fenced
		} else if m := heading.FindStringSubmatch(line); m != nil && !fenced {
			level := len(m[1])
			if histLevel > 0 && level <= histLevel {
				histLevel = 0
			}
			if histLevel == 0 && strings.HasSuffix(strings.TrimSpace(m[2]), "(history)") {
				histLevel = level
			}
		}
		lines = append(lines, docLine{line, fenced || fence, histLevel > 0})
	}
	return lines
}

// spans returns the backticked spans of a markdown document outside
// fenced blocks; a span may wrap onto the next line.
func spans(lines []docLine) []docSpan {
	texts := make([]string, len(lines))
	for i, l := range lines {
		if !l.fenced {
			texts[i] = l.text
		}
	}
	text := strings.Join(texts, "\n")
	var out []docSpan
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		line := strings.Count(text[:m[0]], "\n")
		out = append(out, docSpan{
			line:    line + 1,
			text:    strings.Join(strings.Fields(text[m[2]:m[3]]), " "),
			history: lines[line].history,
		})
	}
	return out
}

var (
	// goName is pkg.Name, pkg.Type.Member, pkg.(*Type).Member or
	// (*pkg.Type).Member, with any call arguments.
	goName = regexp.MustCompile(`^(?:\(\*)?([a-z][a-z0-9]*)\.(?:\(\*)?([A-Za-z_]\w*)\)?(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	// repoPath is a relative path, with any :line or :line–line suffix.
	repoPath = regexp.MustCompile(`^(?:\./)?([\w.\-]+(?:/[\w.\-]+)*/?)(?::\d+(?:[–-]\d+)?)?$`)
	// fileName ends in the extension of a file the repository keeps.
	fileName = regexp.MustCompile(`\.(go|md|txt|json|jsonl|log|golden|sha256|yml)$`)
)

// resolve says what is wrong with the Go name a span names, or "" if it
// names code that exists or no package of the module.
func (ix *index) resolve(span string) string {
	m := goName.FindStringSubmatch(span)
	if m == nil || ix.byName[m[1]] == nil || fileName.MatchString(span) {
		return ""
	}
	pkg, name, member := m[1], m[2], m[3]
	for _, p := range ix.byName[pkg] {
		if member == "" && p.names[name] || member != "" && p.has(name, member) {
			return ""
		}
	}
	if member == "" {
		for _, p := range ix.byName[pkg] {
			for typ := range p.types {
				if p.types[typ].members[name] {
					return "no package-level " + name + " in " + pkg + "; it is a member of " + typ
				}
			}
		}
		return "no package-level " + name + " in " + pkg
	}
	return "no field or method " + member + " of " + pkg + "." + name
}

// missingPath says what is wrong with the repository path a span names,
// or "" if it exists or the span is no path.
func (ix *index) missingPath(span string) string {
	m := repoPath.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	p := strings.TrimSuffix(m[1], "/")
	if rest, ok := strings.CutPrefix(p, ix.module+"/"); ok {
		p = rest
	}
	first, _, dir := strings.Cut(p, "/")
	switch {
	case !dir && strings.HasSuffix(p, ".go"):
		if !ix.fileNames[p] {
			return "no file " + p + " in the repository"
		}
		return ""
	case !dir, !ix.top[first] && !fileName.MatchString(p):
		return "" // a name, a benchmark or an import path outside the module
	}
	for _, dir := range []string{"", "internal"} {
		if _, err := os.Stat(filepath.Join(ix.root, dir, filepath.FromSlash(p))); err == nil {
			return ""
		}
	}
	return "no " + p + " in the repository"
}

// TestDocsNameExistingCode holds DESIGN.md, README.md and the verify
// skill to the code that exists: every backticked package-qualified Go
// name resolves in the module, every backticked repository path exists,
// and no deleted name appears outside a section marked as history.
func TestDocsNameExistingCode(t *testing.T) {
	ix := moduleIndex(t)
	// The measuring stick's metrics are named layer.metric, as a Go name
	// would be.
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join(ix.root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	metric := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metric[m.Name] = true
	}
	for _, doc := range docs {
		src, err := os.ReadFile(filepath.Join(ix.root, filepath.FromSlash(doc)))
		if err != nil {
			t.Fatal(err)
		}
		lines := docLines(string(src))
		for _, s := range spans(lines) {
			if s.history {
				continue
			}
			if why := ix.resolve(s.text); why != "" && !metric[s.text] {
				t.Errorf("%s:%d: `%s`: %s", doc, s.line, s.text, why)
			}
			if why := ix.missingPath(s.text); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, s.line, s.text, why)
			}
		}
		for i, line := range lines {
			if line.history {
				continue
			}
			if why := matchDeleted(line.text); why != "" {
				t.Errorf("%s:%d: a deleted name outside a history section: %s\n\t%s", doc, i+1, strings.TrimSpace(line.text), why)
			}
			for _, d := range deletions {
				for _, p := range d.packages {
					if strings.Contains(line.text, p) {
						t.Errorf("%s:%d: the deleted package %s outside a history section\n\t%s", doc, i+1, p, d.why)
					}
				}
			}
		}
	}
}
