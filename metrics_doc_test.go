package prochecker

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// metricSites is what the source scan collects: every metric name (or
// name family) registered anywhere in non-test code.
type metricSites struct {
	static   map[string]bool // full literal names: "jobs.submitted"
	prefixes map[string]bool // dynamic suffix families: "jobs.terminal."
	labelled map[string]bool // Labeled/LabeledStr bases: "mc.frontier_width"
}

// scanMetricSites walks every non-test .go file and records the first
// argument of each Counter/Gauge/Histogram registration: a plain string
// literal, a `"prefix." + expr` concatenation, or an obs.Labeled /
// obs.LabeledStr call (whose own literal first argument is the family
// base).
func scanMetricSites(t *testing.T, root string) metricSites {
	t.Helper()
	sites := metricSites{
		static:   make(map[string]bool),
		prefixes: make(map[string]bool),
		labelled: make(map[string]bool),
	}
	record := func(arg ast.Expr) {
		switch a := arg.(type) {
		case *ast.BasicLit:
			if a.Kind != token.STRING {
				return
			}
			name, err := strconv.Unquote(a.Value)
			if err != nil {
				return
			}
			sites.static[name] = true
		case *ast.BinaryExpr:
			// "prefix." + runtimeValue — a dynamic suffix family.
			if a.Op != token.ADD {
				return
			}
			if lit, ok := a.X.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if prefix, err := strconv.Unquote(lit.Value); err == nil && strings.HasSuffix(prefix, ".") {
					sites.prefixes[prefix] = true
				}
			}
		case *ast.CallExpr:
			// obs.Labeled(base, ...) / obs.LabeledStr(base, ...).
			fn, ok := a.Fun.(*ast.SelectorExpr)
			if !ok || (fn.Sel.Name != "Labeled" && fn.Sel.Name != "LabeledStr") || len(a.Args) == 0 {
				return
			}
			if lit, ok := a.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if base, err := strconv.Unquote(lit.Value); err == nil {
					sites.labelled[base] = true
				}
			}
		}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, perr := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if perr != nil {
			return perr
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram":
				record(call.Args[0])
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("scanning sources: %v", err)
	}
	// The Labeled bases register through Counter/Gauge/Histogram calls
	// too (as *ast.CallExpr args); drop them from static if a literal
	// elsewhere duplicated one.
	return sites
}

// docMetricEntries parses docs/metrics.md: every table row whose first
// column is a backticked metric name.
func docMetricEntries(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("docs", "metrics.md"))
	if err != nil {
		t.Fatalf("reading docs/metrics.md: %v", err)
	}
	entries := make(map[string]bool)
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		rest := line[len("| `"):]
		end := strings.IndexByte(rest, '`')
		if end < 0 {
			t.Errorf("docs/metrics.md: unterminated metric name in row %q", line)
			continue
		}
		entries[rest[:end]] = true
	}
	if len(entries) == 0 {
		t.Fatal("docs/metrics.md has no metric table rows")
	}
	return entries
}

// docCovers maps a registration site onto its expected doc entry.
func docCovers(entries map[string]bool, name string) bool {
	if entries[name] {
		return true
	}
	// A labelled base is documented with its label suffix:
	// jobs.terminal_by_impl -> `jobs.terminal_by_impl{impl=<v>}`.
	for e := range entries {
		if open := strings.IndexByte(e, '{'); open > 0 && e[:open] == name {
			return true
		}
	}
	return false
}

// TestMetricsDocRegistry keeps docs/metrics.md in sync with the
// registered instruments, in both directions: every registration site
// must be documented, and every documented entry must still exist in
// the code.
func TestMetricsDocRegistry(t *testing.T) {
	sites := scanMetricSites(t, ".")
	entries := docMetricEntries(t)

	for name := range sites.static {
		if !docCovers(entries, name) {
			t.Errorf("metric %q is registered but not documented in docs/metrics.md", name)
		}
	}
	for prefix := range sites.prefixes {
		found := false
		for e := range entries {
			if strings.HasPrefix(e, prefix) && strings.Contains(e, "<") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("dynamic metric family %q<...> is registered but not documented in docs/metrics.md", prefix)
		}
	}
	for base := range sites.labelled {
		if !docCovers(entries, base) {
			t.Errorf("labelled metric family %q is registered but not documented in docs/metrics.md", base)
		}
	}

	// Reverse: no stale doc entries.
	for entry := range entries {
		name := entry
		if open := strings.IndexByte(name, '{'); open > 0 {
			name = name[:open]
			if sites.labelled[name] {
				continue
			}
			t.Errorf("docs/metrics.md documents labelled family %q which no code registers", entry)
			continue
		}
		if dot := strings.Index(name, ".<"); dot > 0 {
			if sites.prefixes[name[:dot+1]] {
				continue
			}
			t.Errorf("docs/metrics.md documents dynamic family %q which no code registers", entry)
			continue
		}
		if !sites.static[name] {
			t.Errorf("docs/metrics.md documents %q which no code registers", entry)
		}
	}
}
