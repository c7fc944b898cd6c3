package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"mixsoc/internal/core"
)

// checkWriteJSON fails unless WriteJSON writes exactly
// json.MarshalIndent(v, "", "  ") plus a newline, or fails where it
// fails, writing nothing.
func checkWriteJSON(t *testing.T, name string, v any) {
	t.Helper()
	want, werr := json.MarshalIndent(v, "", "  ")
	var got bytes.Buffer
	gerr := WriteJSON(&got, v)
	switch {
	case (werr != nil) != (gerr != nil):
		t.Fatalf("%s: WriteJSON error %v, MarshalIndent error %v", name, gerr, werr)
	case gerr != nil:
		if got.Len() != 0 {
			t.Fatalf("%s: WriteJSON failed (%v) but wrote %q", name, gerr, got.Bytes())
		}
	case !bytes.Equal(got.Bytes(), append(want, '\n')):
		t.Fatalf("%s: WriteJSON bytes differ from MarshalIndent:\ngot  %q\nwant %q", name, got.Bytes(), want)
	}
}

// WriteJSON is MarshalIndent plus a newline for every body the server
// sends: plan, sweep, shard, batch, job status, designs and an empty
// fleet's workers responses, and error bodies whose messages carry
// quotes, brackets, escapes and characters the encoder escapes.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	s, ts := newJobServer(t, t.TempDir())
	ctx := context.Background()
	wt := 0.25
	plan, err := s.Plan(ctx, PlanRequest{Benchmark: "d695m", Width: 32, WT: &wt, Bounded: true})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := s.Sweep(ctx, SweepRequest{Widths: []int{24, 32}, WTs: []float64{0.5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := s.Shard(ctx, ShardRequest{SweepRequest: SweepRequest{Widths: []int{24, 32}}, Shard: 1, Of: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.Batch(ctx, BatchRequest{Items: []PlanRequest{{Width: 32}, {Width: 0}, {Width: 32}}})
	if err != nil {
		t.Fatal(err)
	}
	job := submitJob(t, ts, jobTestGrid, 202)
	job = waitJobState(t, ts, job.ID, JobStateDone, 2*time.Minute)
	bodies := map[string]any{
		"plan":    plan,
		"sweep":   sweep,
		"shard":   shard,
		"batch":   batch,
		"job":     job,
		"designs": s.Designs(),
		"error": ErrorResponse{
			Error:   "bad request body: invalid character '}' after \"key\" [at 3]: {\"a\":[1,2]} \\ \t\n\r \x00 <&>    é \xff",
			Workers: []WorkerFailure{{Worker: `http://w1:8093/"]}`, Shard: 1, Error: `{"error": "[nested]"}`}},
		},
		"empty error":   ErrorResponse{},
		"empty workers": WorkersResponse{Workers: []WorkerInfo{}},
		"nil":           nil,
		"nan":           math.NaN(),
	}
	for name, v := range bodies {
		checkWriteJSON(t, name, v)
	}
}

// FuzzWriteJSON checks WriteJSON against MarshalIndent over arbitrary
// strings (as keys and values), floats, empty and nested arrays and
// objects, and any valid JSON text carried as a json.RawMessage.
func FuzzWriteJSON(f *testing.F) {
	f.Add(`{"a":[1,{},[]],"b":"x\"]}"}`, `quote" bracket] brace} \ <&>`, 1.5e-300)
	f.Add(`[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]`, " \x00\xff", math.Inf(1))
	f.Add(` { "k" : [ true , false , null , "\\\"" , -0.0e+1 ] } `, "", 0.1)
	f.Add(`"\\"`, `\\"`, -2.5e21)
	f.Fuzz(func(t *testing.T, raw, s string, x float64) {
		values := []any{
			s, x,
			map[string]any{s: []any{s, x, []any{}, map[string]any{}, []int(nil), map[string][]any{s: {}}}},
			ErrorResponse{Error: s, Workers: []WorkerFailure{{Worker: s}, {Error: s}}},
			core.Weights{Time: x, Area: 1 - x},
		}
		if json.Valid([]byte(raw)) {
			values = append(values, json.RawMessage(raw), map[string]any{s: json.RawMessage(raw), "list": []json.RawMessage{json.RawMessage(raw), json.RawMessage(raw)}})
		}
		for i, v := range values {
			checkWriteJSON(t, strings.Repeat("#", i+1), v)
		}
	})
}
