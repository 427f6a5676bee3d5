package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0: 1, 50: 5, 90: 9, 99: 10, 100: 10} {
		if got := quantile(v, p); got != want {
			t.Errorf("quantile(p%v) = %v, want %v", p, got, want)
		}
	}
	if quantile(nil, 50) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

func TestSameSeedSameOps(t *testing.T) {
	draw := func(seed int64, session int) []op {
		s := newOpStream(seed, session, sessionCount, 50)
		out := make([]op, 2000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := draw(7, 3), draw(7, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and session produced different op sequences")
	}
	if reflect.DeepEqual(a, draw(8, 3)) || reflect.DeepEqual(a, draw(7, 4)) {
		t.Fatal("another seed or session produced the same op sequence")
	}
	reads, lastSeq := 0, uint32(0)
	for _, o := range a {
		if o.Key%sessionCount != 3 || o.Key < 0 || o.Key >= keyCount {
			t.Fatalf("session 3 drew key %d, which it does not own", o.Key)
		}
		if o.Kind == opWrite {
			if o.Seq != lastSeq+1 {
				t.Fatalf("write seq %d follows %d", o.Seq, lastSeq)
			}
			lastSeq = o.Seq
		} else {
			reads++
		}
	}
	if reads < 800 || reads > 1200 {
		t.Errorf("%d of 2000 ops were reads at a 50%% read share", reads)
	}
}

func TestValueRoundTrip(t *testing.T) {
	buf := make([]byte, valueSize)
	v := fillValue(buf, 4711, 9)
	if !valueIs(v, 4711, 9) || valueIs(v, 4711, 8) || valueIs(v, 4712, 9) || valueIs(v[:valueSize-1], 4711, 9) {
		t.Error("valueIs does not single out the value fillValue wrote")
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "write_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	tput := metricDef{Name: "tput_ops_s", Unit: "ops/s", Better: higher, Bound: 0.10}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25}
	m := func(v, spread float64) fileMetric { return fileMetric{Value: v, Spread: spread} }
	cases := []struct {
		name         string
		def          metricDef
		a, b         fileMetric
		haveA, haveB bool
		want         string
	}{
		{"within bound", lat, m(100, 0), m(109, 0), true, true, verdictOK},
		{"better", lat, m(100, 0), m(50, 0), true, true, verdictOK},
		{"worse than bound", lat, m(100, 0), m(111, 0), true, true, verdictRegressed},
		{"throughput drop", tput, m(1000, 0), m(880, 0), true, true, verdictRegressed},
		{"throughput gain", tput, m(1000, 0), m(2000, 0), true, true, verdictOK},
		{"noisy side", lat, m(100, 0.2), m(150, 0), true, true, verdictUnresolved},
		{"missing side", lat, m(100, 0), m(0, 0), true, false, verdictUnresolved},
		{"setup worse in share only", setup, m(0.4, 0), m(0.6, 0), true, true, verdictOK},
		{"setup worse in share and seconds", setup, m(0.4, 0), m(0.7, 0), true, true, verdictRegressed},
		{"setup worse in seconds only", setup, m(4, 0), m(4.5, 0), true, true, verdictOK},
	}
	for _, c := range cases {
		if _, got := judge(c.def, c.a, c.b, c.haveA, c.haveB); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(name string, p50 float64) string {
		f := resultFile{Workloads: map[string]workloadResult{}}
		for _, s := range specs {
			e2e := map[string]fileMetric{}
			for _, d := range endToEnd {
				e2e[d.Name] = fileMetric{Value: 100, Unit: d.Unit}
			}
			e2e["write_p50_us"] = fileMetric{Value: p50, Unit: "us"}
			f.Workloads[s.Name] = workloadResult{EndToEnd: e2e}
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 100), write("b.json", 105), write("c.json", 130)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, same); err != nil || regressed {
		t.Fatalf("5%% worse: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(specs)*len(endToEnd) {
		t.Errorf("%d lines, want a header and one row per workload and metric", rows)
	}
	out.Reset()
	if regressed, err := compareFiles(&out, base, slow); err != nil || !regressed {
		t.Fatalf("30%% worse: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no %q row in\n%s", verdictRegressed, out.String())
	}
}

// TestBenchmarkJSON checks that the checked-in BENCHMARK.json is what
// the metric and workload tables generate, and that it keeps within the
// limits the benchmark driver sets.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var have, want any
	if err := json.Unmarshal(data, &have); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: go run . -benchmark-json > ../BENCHMARK.json")
	}

	f := benchmarkJSON()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range f.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, d := range f.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: bound %v, better %q", d.Name, d.Bound, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range f.PerLayer {
		check(d.Name, d.Unit)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("run_seconds %d, %d bytes", f.RunSeconds, len(data))
	}
}

// TestSmoke makes a one-second traced run of every workload, which
// goes through set-up, load, the correctness gate, the layer drivers and
// the span file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real rings; skipped under -short")
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(context.Background(), runConfig{
				Workload: s.Name, Seed: 3, Measure: time.Second, Traced: true, Smoke: true,
				StateDir: filepath.Join(dir, "state"), ResultsDir: filepath.Join(dir, "results"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, d := range endToEnd {
				if v, ok := res.EndToEnd[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v", d.Name, v)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer %s is missing", d.Name)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d defined", len(res.PerLayer), len(perLayer))
			}
			if v := res.PerLayer["wire.marshal_append_ns_per_entry"]; v.Value <= 0 {
				t.Errorf("layer drivers did not run: %+v", v)
			}
			data, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.Spans) == 0 {
				t.Errorf("span file: %d spans, err %v", len(trace.Spans), err)
			}
		})
	}
}
