// Command benchpairs judges a change the way BENCHMARK.json's gate does:
// alternating runs of one workload at a parent commit and at the working
// tree, then per end-to-end metric both sides' medians and quartiles, the
// ratio of the medians and the change's wins.
//
//	go run ./tools/benchpairs REV WORKLOAD SEED...   (make pairs REV=… WORKLOAD=… SEEDS="…")
//
// Run it from the repository root. It extracts REV (git archive) into
// .bench_build/pairs-parent, runs BENCHMARK.json's command there and in the
// working tree once per seed — pair i runs the parent first when i is odd
// and the change first when it is even — at the benchmark's run_seconds,
// appends every result line to .bench_build/pairs-WORKLOAD.jsonl (a second
// set of the same comparison keeps the first), removes the extracted tree,
// and prints the table of this set. Each line also says which side ran
// first, the processors, the Go version and the working tree's commit,
// with whether the tree differed from it. A metric is "unresolved" when
// either side's interquartile range exceeds its bound as a share of the
// median (unless every change run reads better than every parent run), a
// "regression" when the change's median is worse than the parent's by more
// than the bound, and a "gain" when the change wins at least nine pairs in
// ten and its median is further from the parent's than the parent's
// interquartile range.
package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchmark is what benchpairs reads of BENCHMARK.json.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the line a run of the benchmark command ends its output with.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// record is one line of pairs-WORKLOAD.jsonl. Commit and Dirty describe
// the working tree, whichever side the line is.
type record struct {
	Pair      int             `json:"pair"`
	Seed      string          `json:"seed"`
	Side      string          `json:"side"`
	Rev       string          `json:"rev"`
	First     string          `json:"first"`
	Nproc     int             `json:"nproc"`
	GoVersion string          `json:"go_version"`
	Commit    string          `json:"commit"`
	Dirty     bool            `json:"dirty"`
	Result    json.RawMessage `json:"result"`
}

func main() {
	if len(os.Args) < 4 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs REV WORKLOAD SEED...")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2], os.Args[3:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(rev, workload string, seeds []string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(b.Command) == 0 || b.RunSeconds <= 0 {
		return errors.New("BENCHMARK.json names no command or run_seconds")
	}
	parent := filepath.Join(".bench_build", "pairs-parent")
	if err := extract(rev, parent); err != nil {
		return err
	}
	defer os.RemoveAll(parent)

	commit, dirty, err := treeState()
	if err != nil {
		return err
	}
	log, err := os.OpenFile(filepath.Join(".bench_build", "pairs-"+workload+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer log.Close()
	trees := map[string]string{"parent": parent, "change": "."}
	runs := map[string][]result{}
	for i, seed := range seeds {
		order := []string{"parent", "change"}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, side := range order {
			line, err := runOnce(b, trees[side], workload, seed)
			if err != nil {
				return fmt.Errorf("pair %d (seed %s), %s: %w", i+1, seed, side, err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				return fmt.Errorf("pair %d (seed %s), %s: result line: %w", i+1, seed, side, err)
			}
			runs[side] = append(runs[side], res)
			tree := rev
			if side == "change" {
				tree = "working tree"
			}
			rec, _ := json.Marshal(record{Pair: i + 1, Seed: seed, Side: side, Rev: tree, First: order[0],
				Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit, Dirty: dirty, Result: line})
			if _, err := log.Write(append(rec, '\n')); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "pair %d seed %s %s: ops_per_s %.1f failed %d correct %v\n", i+1, seed, side, res.Metrics["ops_per_s"].Value, res.Failed, res.Correct)
		}
	}
	report(os.Stdout, b, rev, workload, runs["parent"], runs["change"])
	return log.Close()
}

// treeState returns the working tree's commit and whether the tree
// differs from it (untracked files included).
func treeState() (commit string, dirty bool, err error) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false, fmt.Errorf("git rev-parse HEAD: %w", err)
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return "", false, fmt.Errorf("git status: %w", err)
	}
	return strings.TrimSpace(string(head)), len(bytes.TrimSpace(status)) > 0, nil
}

// extract writes the tree of rev into dir, replacing whatever was there.
func extract(rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("git archive %s: %v: %s", rev, err, strings.TrimSpace(errOut.String()))
	}
	tr := tar.NewReader(&out)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode).Perm())
		case tar.TypeSymlink:
			err = os.Symlink(h.Linkname, path)
		}
		if err != nil {
			return err
		}
	}
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOnce runs the benchmark command in dir and returns its last line of
// output, the result. The rest of the output goes to standard error.
func runOnce(b benchmark, dir, workload, seed string) ([]byte, error) {
	args := append(b.Command[1:len(b.Command):len(b.Command)], "--workload", workload, "--seed", seed, "--seconds", fmt.Sprint(b.RunSeconds))
	cmd := exec.Command(b.Command[0], args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&out, os.Stderr), os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if last == nil {
		return nil, errors.New("no output")
	}
	return last, nil
}

// report prints one row per end-to-end metric.
func report(w io.Writer, b benchmark, rev, workload string, parent, change []result) {
	fmt.Fprintf(w, "%s: %s (parent) against the working tree (change), %d pairs, %gs runs\n", workload, rev, len(parent), b.RunSeconds)
	fmt.Fprintf(w, "failed: parent %v, change %v; correct: parent %v, change %v\n", failed(parent), failed(change), correct(parent), correct(change))
	fmt.Fprintf(w, "%-14s %-6s %-30s %-30s %-7s %-6s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "verdict")
	for _, m := range b.EndToEnd {
		j := judge(m.Better, m.Bound, values(parent, m.Name), values(change, m.Name))
		fmt.Fprintf(w, "%-14s %-6s %-30s %-30s %-7.3f %-6s %s\n", m.Name, m.Better,
			fmt.Sprintf("%.4g [%.4g, %.4g]", j.pm, j.pq1, j.pq3), fmt.Sprintf("%.4g [%.4g, %.4g]", j.cm, j.cq1, j.cq3),
			j.cm/j.pm, fmt.Sprintf("%d/%d", j.wins, len(parent)), j.verdict)
	}
}

// judgement is one metric's row: both sides' medians and quartiles, the
// pairs the change won and the verdict.
type judgement struct {
	pm, pq1, pq3 float64
	cm, cq1, cq3 float64
	wins         int
	verdict      string
}

// judge reads one metric over paired runs (p[i] and c[i] are pair i's
// parent and change values); better is "higher" or "lower" and bound the
// metric's bound from BENCHMARK.json.
func judge(better string, bound float64, p, c []float64) judgement {
	beats := func(x, y float64) bool { // x reads better than y
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	var j judgement
	for i := range p {
		if beats(c[i], p[i]) {
			j.wins++
		}
	}
	j.pm, j.pq1, j.pq3 = quartiles(p)
	j.cm, j.cq1, j.cq3 = quartiles(c)
	everyRun := len(p) > 0
	for _, x := range c {
		for _, y := range p {
			everyRun = everyRun && beats(x, y)
		}
	}
	j.verdict = "within bound"
	worse := (j.cm - j.pm) / j.pm
	if better == "higher" {
		worse = -worse
	}
	switch {
	case (spread(j.pm, j.pq1, j.pq3) > bound || spread(j.cm, j.cq1, j.cq3) > bound) && !everyRun:
		j.verdict = "unresolved"
	case worse > bound:
		j.verdict = "regression"
	case 10*j.wins >= 9*len(p) && math.Abs(j.cm-j.pm) > j.pq3-j.pq1:
		j.verdict = "gain"
	}
	return j
}

func values(runs []result, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func failed(runs []result) []int {
	out := make([]int, len(runs))
	for i, r := range runs {
		out[i] = r.Failed
	}
	return out
}

func correct(runs []result) bool {
	for _, r := range runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

// quartiles returns the median and the first and third quartiles of xs,
// interpolated linearly between order statistics.
func quartiles(xs []float64) (median, q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}

// spread is a side's interquartile range as a share of its median.
func spread(median, q1, q3 float64) float64 {
	if median == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(median)
}
