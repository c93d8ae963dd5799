// Command bivocbench is the repository's benchmark. It boots the real
// layers in one process (core, server, fed and store over loopback HTTP
// and a temp data directory), drives five named workloads from a seed,
// checks the answers, and prints every metric by name with its unit.
//
//	bivocbench --workload mono_miss --seed 1 --seconds 15 --trace 0
//
// measures one workload and prints, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics} holding the
// end-to-end metrics; --trace 1 makes a separate traced run that holds
// the per-layer metrics instead and writes trace-<workload>.json.
// Without --workload all five run in turn and the results go to --out;
// --aa runs that suite twice and compares the halves; --compare a.json
// b.json compares two saved suites. README.md has the tables.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outcome is one measured workload.
type outcome struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// WindowSpread is IQR/median of the windows' (or jobs') throughput;
	// above noisyAbove the host, not the program, set the numbers.
	WindowSpread float64   `json:"window_spread"`
	WindowRates  []float64 `json:"window_ops_per_s"`
	Noisy        bool      `json:"noisy"`
	Samples      int       `json:"latency_samples"`
	AllWindows   float64   `json:"ops_per_s_all_windows"`
	Failure      string    `json:"failure,omitempty"`
}

// measure runs one workload untraced for the end-to-end metrics, or
// traced for the per-layer ones.
func measure(cfg runConfig, trace bool) (*outcome, error) {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	var layers metricSet
	var budget tally
	if trace {
		rec := newRecorder()
		var err error
		if layers, err = runBudget(cfg, rec, &budget); err != nil {
			return nil, err
		}
		if err := rec.writeFile(filepath.Join(cfg.tmp, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
		cfg.z.setups = 1
	}
	p, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	values := p.e2e
	if trace {
		p.tally.add(budget.attempted, budget.failed, "the layer budget")
		if p.first == nil {
			p.first = budget.first
		}
		p.proc.perOp(p.ops, layers)
		layers["load.window_spread"] = p.windowSpread
		layers["server.cache_hit_ratio"] = p.serverHit
		layers["fed.cache_hit_ratio"] = p.fedHit
		values = layers
	}
	rendered, err := values.render(defsFor(trace))
	if err != nil {
		return nil, err
	}
	o := &outcome{
		Workload: cfg.workload, Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: rendered, WindowSpread: p.windowSpread, WindowRates: p.windowRates, Noisy: p.windowSpread > noisyAbove,
		Samples: p.samples, AllWindows: p.allRate,
	}
	if p.first != nil {
		o.Failure = p.first.Error()
	}
	return o, nil
}

// defsFor lists the metrics a run of that kind reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// print writes the outcome for a reader: every metric by name with its unit.
func (o *outcome) print(defs []metricDef) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d window_spread=%.3f", o.Workload, o.Correct, o.Attempted, o.Failed, o.WindowSpread)
	if o.Noisy {
		fmt.Print(" NOISY")
	}
	fmt.Printf("\n  %d windows, %d latency samples; every value is the windows' quiet quartile; ops_per_s over all windows pooled %.1f\n",
		len(o.WindowRates), o.Samples, o.AllWindows)
	fmt.Printf("  ops_per_s of each window: %.0f\n", o.WindowRates)
	if o.Failure != "" {
		fmt.Printf("  first failure: %s\n", o.Failure)
	}
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %s\n", d.Name, o.Metrics[d.Name].Value, d.Unit)
	}
}

// suite is a run of every workload, as saved by --out and read by --compare.
type suite struct {
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Go        string              `json:"go"`
	NumCPU    int                 `json:"nproc"`
	WallS     float64             `json:"wall_s"`
	Workloads map[string]*outcome `json:"workloads"`
}

func runSuite(cfg runConfig, trace bool) (*suite, error) {
	s := &suite{Seed: cfg.seed, Seconds: cfg.seconds, Go: runtime.Version(), NumCPU: runtime.NumCPU(), Workloads: map[string]*outcome{}}
	start := time.Now()
	for _, w := range workloadDefs {
		cfg.workload = w.Name
		o, err := measure(cfg, trace)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		o.print(defsFor(trace))
		s.Workloads[w.Name] = o
	}
	s.WallS = time.Since(start).Seconds()
	return s, nil
}

func (s *suite) correct() bool {
	for _, o := range s.Workloads {
		if !o.Correct {
			return false
		}
	}
	return true
}

func (s *suite) save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out, tmp string
	smoke    bool
	aa       bool
	compare  bool
	files    []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the driver's JSON line (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of one workload's measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.json instead of end-to-end metrics")
	flag.StringVar(&o.out, "out", "", "suite mode: save the results to this file (default <tmp>/suite.json)")
	flag.StringVar(&o.tmp, "tmp", ".bench_build", "directory for data directories, traces and results; created if missing")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for a quick end-to-end check of the benchmark itself")
	flag.BoolVar(&o.aa, "aa", false, "run the suite twice and compare the halves")
	flag.BoolVar(&o.compare, "compare", false, "compare two saved suites: bivocbench --compare base.json new.json")
	flag.Parse()
	o.files = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bivocbench:", err)
		os.Exit(1)
	}
}

var (
	errIncorrect = errors.New("a workload gave a wrong answer or failed an operation")
	errRegressed = errors.New("the two sides differ by more than a bound")
)

func run(o options) error {
	if o.compare {
		if len(o.files) != 2 {
			return errors.New("--compare takes two files")
		}
		base, err := loadSuite(o.files[0])
		if err != nil {
			return err
		}
		changed, err := loadSuite(o.files[1])
		if err != nil {
			return err
		}
		if !printComparison(compareSuites(base, changed)) {
			return errRegressed
		}
		return nil
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	cfg := runConfig{workload: o.workload, seed: o.seed, seconds: o.seconds, z: fullSizes, tmp: o.tmp}
	if o.smoke {
		cfg.z = smokeSizes
	}
	if o.out == "" {
		o.out = filepath.Join(o.tmp, "suite.json")
	}
	trace := o.trace == 1
	switch {
	case o.workload != "":
		res, err := measure(cfg, trace)
		if err != nil {
			return err
		}
		res.print(defsFor(trace))
		// The driver's line: exactly these four keys, last on standard output.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	case o.aa:
		first, err := runSuite(cfg, false)
		if err != nil {
			return err
		}
		second, err := runSuite(cfg, false)
		if err != nil {
			return err
		}
		if err := second.save(o.out); err != nil {
			return err
		}
		if !printComparison(compareSuites(first, second)) {
			return errRegressed
		}
		if !first.correct() || !second.correct() {
			return errIncorrect
		}
		return nil
	default:
		s, err := runSuite(cfg, trace)
		if err != nil {
			return err
		}
		fmt.Printf("suite took %.0f s\n", s.WallS)
		if err := s.save(o.out); err != nil {
			return err
		}
		if !s.correct() {
			return errIncorrect
		}
		return nil
	}
}
