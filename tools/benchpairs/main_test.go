package main

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestQuartilesInterpolateLinearly(t *testing.T) {
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1, 3, 2}, 2.5, 1.75, 3.25},
		{[]float64{5, 1, 4, 2, 3}, 3, 2, 4},
		{[]float64{10, 0}, 5, 2.5, 7.5},
	}
	for _, c := range cases {
		med, q1, q3 := quartiles(c.xs)
		if med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g [%g, %g], want %g [%g, %g]", c.xs, med, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if med, _, _ := quartiles(nil); !math.IsNaN(med) {
		t.Errorf("quartiles of no runs = %g, want NaN", med)
	}
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("quartiles reordered its input: %v", xs)
	}
}

// seq returns n values from start in steps of step.
func seq(n int, start, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	parent := seq(10, 100, 1) // median 104.5, IQR 4.5, spread 4.3 %
	cases := []struct {
		name    string
		better  string
		change  []float64
		wins    int
		verdict string
	}{
		// Every pair won and the medians 10 apart: a gain.
		{"gain lower", "lower", seq(10, 90, 1), 10, "gain"},
		{"gain higher", "higher", seq(10, 110, 1), 10, "gain"},
		// Nine wins in ten are enough.
		{"nine wins", "lower", append(seq(9, 90, 1), 200), 9, "gain"},
		// Eight are not.
		{"eight wins", "lower", append(seq(8, 90, 1), 200, 200), 8, "within bound"},
		// Every pair won by 0.5, but the median gap is under the parent's IQR.
		{"gap under IQR", "lower", seq(10, 99.5, 1), 10, "within bound"},
		// The change reads 30 % worse than the parent on a 25 % bound.
		{"regression lower", "lower", seq(10, 135, 1), 0, "regression"},
		{"regression higher", "higher", seq(10, 70, 1), 0, "regression"},
		// 20 % worse is inside the bound.
		{"worse within bound", "lower", seq(10, 120, 1), 0, "within bound"},
		// The change's runs spread wider than the bound: unresolved, even
		// though its median is a regression's.
		{"change spread", "lower", seq(10, 100, 10), 0, "unresolved"},
	}
	for _, c := range cases {
		j := judge(c.better, 0.25, parent, c.change)
		if j.wins != c.wins || j.verdict != c.verdict {
			t.Errorf("%s: %d wins, %q; want %d wins, %q", c.name, j.wins, j.verdict, c.wins, c.verdict)
		}
	}
}

func TestJudgeUnresolvedUnlessEveryRunBeatsEveryRun(t *testing.T) {
	wide := seq(10, 100, 6) // median 127, IQR 27: spread 21 %
	if j := judge("lower", 0.2, wide, wide); j.verdict != "unresolved" {
		t.Errorf("parent spread 21 %% on a 20 %% bound: %q, want unresolved", j.verdict)
	}
	// Every change run is below every parent run: the spread no longer
	// hides the direction.
	if j := judge("lower", 0.2, wide, seq(10, 10, 1)); j.verdict != "gain" {
		t.Errorf("every change run better than every parent run: %q, want gain", j.verdict)
	}
	// A spread of 21 % is resolved on a 25 % bound.
	if j := judge("lower", 0.25, wide, wide); j.verdict != "within bound" {
		t.Errorf("parent spread 21 %% on a 25 %% bound: %q, want within bound", j.verdict)
	}
}

func TestRecordLineRoundTrips(t *testing.T) {
	in := record{Pair: 3, Seed: "9303", Side: "change", Rev: "working tree", First: "parent",
		Nproc: 2, GoVersion: "go1.22.0", Commit: "809b00d4b6259c46ddab7d267c84e1bcb1a1c7f1", Dirty: true,
		Result: json.RawMessage(`{"correct":true,"failed":0,"metrics":{"lat_p50_ms":{"value":0.0727}}}`)}
	line, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out record
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("record drifted through its line %s:\n got  %+v\n want %+v", line, out, in)
	}
	var res result
	if err := json.Unmarshal(out.Result, &res); err != nil || !res.Correct || res.Metrics["lat_p50_ms"].Value != 0.0727 {
		t.Errorf("the line's result reads back as %+v (%v)", res, err)
	}
}
