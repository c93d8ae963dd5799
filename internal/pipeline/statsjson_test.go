package pipeline

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestStageStatsJSONSchemaStable pins the exact wire format of
// StageStats. /statsz consumers key on these names; if this test
// breaks, you are making a breaking schema change — bump deliberately,
// not accidentally.
func TestStageStatsJSONSchemaStable(t *testing.T) {
	s := StageStats{
		Name:        "annotate",
		Workers:     4,
		In:          100,
		Out:         90,
		Skipped:     5,
		Errors:      1,
		Retries:     7,
		Timeouts:    2,
		DeadLetters: 4,
		QueueDepth:  3,
		QueueCap:    8,
		AvgLatency:  1500 * time.Nanosecond,
		MaxLatency:  2 * time.Millisecond,
	}
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"annotate","workers":4,"in":100,"out":90,"skipped":5,` +
		`"errors":1,"retries":7,"timeouts":2,"dead_letters":4,` +
		`"queue_depth":3,"queue_cap":8,"avg_latency_ns":1500,"max_latency_ns":2000000}`
	if string(got) != want {
		t.Errorf("StageStats JSON schema drifted:\n got %s\nwant %s", got, want)
	}

	var back StageStats
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("unmarshal round-trip drifted:\n got %#v\nwant %#v", back, s)
	}
}

// TestStatsMarshalFromLiveRun marshals the Stats() of a real run, so
// the encoder is exercised against values the pipeline itself produces
// (and a slice of StageStats encodes element-wise).
func TestStatsMarshalFromLiveRun(t *testing.T) {
	p := New[int]("json-stats",
		Stage[int]{Name: "double", Fn: func(ctx context.Context, v int) (int, error) { return 2 * v, nil }},
		Stage[int]{Name: "skip-odd", Fn: func(ctx context.Context, v int) (int, error) {
			if v%4 == 2 {
				return 0, ErrSkip
			}
			return v, nil
		}},
	)
	var got []int
	if err := p.Run(context.Background(), IndexedSource(4, func(i int) int { return i + 1 }), func(v int) error {
		got = append(got, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var back []StageStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "double" || back[1].Name != "skip-odd" {
		t.Fatalf("unexpected stats round-trip: %s", data)
	}
	if back[0].In != 4 || back[0].Out != 4 || back[1].Skipped != 2 {
		t.Errorf("counters drifted through JSON: %s", data)
	}
}
