package bivoc_test

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bivoc/internal/fed"
	"bivoc/internal/server"
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

// TestDesignNamesStatszFields holds DESIGN.md's /statsz tables to the
// JSON each daemon publishes: every path reachable from the response type
// through JSON names — struct tags, followed through structs (an
// embedded one's fields at its own level), slice elements ("[]") and map
// values (".*"), in whatever package the type lives — must have exactly
// one row, and every row must be such a path. bivocfed's table names
// each shard's stats section once: its paths are bivocd's table.
func TestDesignNamesStatszFields(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		heading string
		resp    any
	}{
		{"### bivocd /statsz", server.StatszResponse{}},
		{"### bivocfed /statsz", fed.StatszResponse{}},
	} {
		named := map[string]int{}
		for _, row := range designTable(t, string(data), tc.heading) {
			named[strings.Trim(row, "` ")]++
		}
		paths := map[string]bool{}
		jsonPaths(reflect.TypeOf(tc.resp), "", reflect.TypeOf(server.StatszResponse{}), paths)
		for path := range paths {
			if n := named[path]; n != 1 {
				t.Errorf("DESIGN.md's %q table has %d rows for %s, want 1", tc.heading, n, path)
			}
		}
		for path := range named {
			if !paths[path] {
				t.Errorf("DESIGN.md's %q table names %s, which its response does not publish", tc.heading, path)
			}
		}
	}
}

// jsonPaths adds to paths the JSON path of every name reachable from t
// under prefix, not following a field of type leaf below the top.
func jsonPaths(t reflect.Type, prefix string, leaf reflect.Type, paths map[string]bool) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Slice, reflect.Array:
		jsonPaths(t.Elem(), prefix+"[]", leaf, paths)
		return
	case reflect.Map:
		jsonPaths(t.Elem(), prefix+".*", leaf, paths)
		return
	case reflect.Struct:
	default:
		return
	}
	if prefix != "" && t == leaf {
		return
	}
	for _, f := range reflect.VisibleFields(t) {
		if !f.IsExported() || len(f.Index) > 1 {
			continue // promoted fields are walked through their embedded struct
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			continue
		}
		if f.Anonymous && name == "" {
			jsonPaths(f.Type, prefix, leaf, paths)
			continue
		}
		if name == "" {
			name = f.Name
		}
		path := name
		if prefix != "" {
			path = prefix + "." + name
		}
		paths[path] = true
		jsonPaths(f.Type, path, leaf, paths)
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
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if rows > 0 {
				break
			}
			continue
		}
		if rows++; rows <= 2 {
			continue // the header and its rule
		}
		cells = append(cells, strings.TrimSpace(strings.SplitN(line, "|", 3)[1]))
	}
	if len(cells) == 0 {
		t.Fatalf("DESIGN.md's %q section has no table", heading)
	}
	return cells
}
