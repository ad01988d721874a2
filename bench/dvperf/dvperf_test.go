package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json for one second on the
// 8×8 band fixture, untraced and traced. Each run must print every
// metric BENCHMARK.json names, with its unit, and finish correct with no
// failed operation; a traced run must write spans linked to parents.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dvserve and dvgateway and runs every workload")
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	fixtureName = "band"
	defer func() { fixtureName = "digits" }()
	work := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				want, trace := spec.EndToEnd, "0"
				if traced {
					want, trace = spec.PerLayer, "1"
				}
				out := filepath.Join(work, "traces")
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "1", "-seconds", "1", "-trace", trace,
					"-work", work, "-out", out}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON summary: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					checkSpans(t, filepath.Join(out, fmt.Sprintf("%s-seed1.jsonl", w.Name)))
				}
			})
		}
	}
}

// checkSpans asserts the span file holds spans whose parents exist and
// that at least one span has a parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int]bool{}
	var spans []spanRec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	linked := 0
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			if !ids[s.Parent] {
				t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
			}
			linked++
		}
	}
	if linked == 0 {
		t.Errorf("%s: %d spans, none linked to a parent", path, len(spans))
	}
}
