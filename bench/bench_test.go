package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestMedianPercentileGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// Nearest rank on a short sample: p95 of 12 is the largest.
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 95); got != 12 {
		t.Errorf("p95 of 12 samples = %v, want 12", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{0, 0}); got != 0 {
		t.Errorf("geomean without positive samples = %v, want 0", got)
	}
}

// The driver judges steadiness with Python's statistics.quantiles(n=4);
// quantiles(range(1, 11)) is [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([1, 2, 4]) is [1.0, 2.0, 4.0].
	if got, want := quartileSpread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "op", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "op", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "op", Start: 70, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 45},
	}
	got := selfTimes(spans)
	// pass: 100 - (10..50 = 40) - (70..100 = 30) = 30.
	// op: 20 + (30 - 20) + 50 = 80.
	for name, want := range map[string]int64{"pass": 30, "op": 80, "leaf": 20} {
		if got[name].Nanoseconds() != want {
			t.Errorf("self time of %s = %d, want %d", name, got[name].Nanoseconds(), want)
		}
	}
}

func TestAdoptRenumbersChildSpans(t *testing.T) {
	tr := &tracer{}
	parent := tr.begin("run", "child", 0)
	tr.end(parent)
	tr.adopt("run", parent, []span{{ID: 1, Name: "a"}, {ID: 2, Parent: 1, Name: "b"}})
	if len(tr.spans) != 3 || tr.spans[1].Parent != parent || tr.spans[2].Parent != tr.spans[1].ID || tr.spans[2].Run != "run" {
		t.Errorf("adopted spans mis-parented: %+v", tr.spans)
	}
}

func TestMixIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := mixBlock(2018, 3), mixBlock(2018, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and block gave different requests")
	}
	if reflect.DeepEqual(a, mixBlock(2019, 3)) || reflect.DeepEqual(a, mixBlock(2018, 4)) {
		t.Error("a different seed or block gave the same requests")
	}
	if len(a) != mixPerNF*len(mixNFs) {
		t.Fatalf("block has %d requests, want %d", len(a), mixPerNF*len(mixNFs))
	}
	perNF, tiny, keyed := map[string]int{}, 0, 0
	for _, r := range a {
		perNF[r.NF]++
		switch {
		case r.Budget > 0:
			tiny++
			if r.NF == "nop" || r.Key != "" {
				t.Errorf("tiny budget on %+v", r)
			}
		case r.Key != "":
			keyed++
		}
		if r.Seed < 2018 || r.Seed >= 2018+mixSeeds {
			t.Errorf("seed %d outside the pool", r.Seed)
		}
	}
	for _, name := range mixNFs {
		if perNF[name] != mixPerNF {
			t.Errorf("%s has %d slots, want %d", name, perNF[name], mixPerNF)
		}
	}
	if want := mixTinyPerNF * (len(mixNFs) - 1); tiny != want {
		t.Errorf("%d tiny-budget requests, want %d", tiny, want)
	}
	if want := mixKeyedPerNF * len(mixNFs); keyed != want {
		t.Errorf("%d keyed requests, want %d", keyed, want)
	}
	if got := len(mixWarmupRequests(2018)); got != mixWarmup {
		t.Errorf("warm-up has %d requests, want %d", got, mixWarmup)
	}
}

func TestFrameFromFlowInvertsTupleString(t *testing.T) {
	fr, err := frameFromFlow("udp 10.0.0.7:1234->192.168.1.1:80")
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) == 0 {
		t.Fatal("empty frame")
	}
	if _, err := frameFromFlow("udp nonsense"); err == nil {
		t.Error("malformed flow accepted")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesStayWithinTheDriversLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// BENCHMARK.json is what the driver reads; the tables in spec.go are what
// the program prints. They must name the same things.
func TestBenchmarkJSONListsWhatTheProgramPrints(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || len(file.Command) == 0 {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, program has %q", i, file.Workloads[i].Name, w.Name)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}
}
