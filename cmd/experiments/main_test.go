package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// goldenPath holds the stdout of `experiments -exp all` at the defaults
// (small scale, seed 2009): the paper's Tables I-IV, the second pass, the
// uplift, the churn shapes and Figure 4 as this reproduction measures
// them. The run is bit-identical, so any change to it is a change to a
// reported number. `make golden` diffs the whole run against the file
// (about three minutes: the four ASR experiments decode for 45 s each);
// the test below checks the sections that take under a second.
const goldenPath = "testdata/all_small_2009.golden"

// goldenSections splits the golden file into its "=== name ===" blocks.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for _, block := range strings.Split(string(data), "\n=== ")[1:] {
		name, body, ok := strings.Cut(block, " ===\n")
		if !ok {
			t.Fatalf("%s: block %q has no header line", goldenPath, block)
		}
		sections[name] = body
	}
	return sections
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		printed <- string(data)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	out := <-printed
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFastSectionsMatchGolden runs the four experiments that need no ASR
// decoding and requires each to print exactly its block of the golden
// file. table2 and fig4 share one reference call analysis, as they do in
// -exp all.
func TestFastSectionsMatchGolden(t *testing.T) {
	want := goldenSections(t)
	if len(want) != 8 {
		t.Fatalf("%s holds %d sections, want the 8 of -exp all", goldenPath, len(want))
	}
	analysis := analyses(false, 2009)
	for name, fn := range map[string]func() error{
		"table2": func() error { return runTable2(analysis) },
		"uplift": func() error { return runUplift(false, 2009) },
		"churn":  func() error { return runChurn(false, 2009) },
		"fig4":   func() error { return runFig4(false, 2009, analysis) },
	} {
		if got := captureStdout(t, fn); got != want[name] {
			t.Errorf("section %s diverges from %s:\n got:\n%s\nwant:\n%s", name, goldenPath, got, want[name])
		}
	}
}
