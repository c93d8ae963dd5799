package bivoc_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignNamesWhatShips holds DESIGN.md's tables to the tree they
// describe, so that a package added, renamed or deleted cannot leave the
// design document naming what does not exist or omitting what does. It
// checks the module map ("System inventory") against the directories
// under internal/ and cmd/: each must have exactly one row, and every
// row under those two trees must name a directory.
func TestDesignNamesWhatShips(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := designTable(t, string(data), "## System inventory (module map)")
	named := map[string]int{}
	for _, row := range rows {
		if pkg := strings.Trim(row, "` "); strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "cmd/") {
			named[pkg]++
		}
	}
	var dirs []string
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.ToSlash(filepath.Join(root, e.Name())))
			}
		}
	}
	for _, dir := range dirs {
		if n := named[dir]; n != 1 {
			t.Errorf("DESIGN.md's module map has %d rows for %s, want 1", n, dir)
		}
	}
	for pkg := range named {
		if !slices.Contains(dirs, pkg) {
			t.Errorf("DESIGN.md's module map names %s, which is not a directory", pkg)
		}
	}
}

// designTable returns the first cell of every body row of the first
// table under heading in a markdown document.
func designTable(t *testing.T, doc, heading string) []string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", heading)
	}
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var cells []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cell := strings.TrimSpace(strings.SplitN(line, "|", 3)[1])
		if designRule.MatchString(cell) || cell == "Package" {
			continue // the header and its rule
		}
		cells = append(cells, cell)
	}
	if len(cells) == 0 {
		t.Fatalf("DESIGN.md's %q section has no table", heading)
	}
	return cells
}

var designRule = regexp.MustCompile(`^:?-+:?$`)
