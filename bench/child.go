package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"castan/internal/budget"
	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/pcap"
	"castan/internal/store"
	"castan/internal/testbed"
	"castan/internal/workload"
)

// Fixed load shape (see README.md): every analysis runs at the
// benchmetrics scale with two pipeline workers on two CPUs.
const (
	procs         = 2
	analysisPkts  = 6
	analysisState = 4000
	replayCap     = 8192
)

// analyzeResult is what an analyze child reports on stdout. The report
// and the frames go to files, as cmd/castan writes them.
type analyzeResult struct {
	NF             string       `json:"nf"`
	Degraded       bool         `json:"degraded"`
	ValidateInstrs uint64       `json:"validate_instrs"`
	ValidateErr    string       `json:"validate_err,omitempty"`
	BudgetTicks    uint64       `json:"budget_ticks"`
	PeakRSSMB      float64      `json:"peak_rss_mb"`
	Spans          []span       `json:"spans,omitempty"`
	Telemetry      *obs.Metrics `json:"telemetry,omitempty"`
}

// replayJob is one (NF, workload file) measurement of a replay pass.
type replayJob struct {
	NF   string `json:"nf"`
	Name string `json:"name"`
	PCAP string `json:"pcap"`
}

// replayMeasurement is one testbed.Measure outcome: host wall time and
// the simulated medians the digest is taken over.
type replayMeasurement struct {
	NF        string  `json:"nf"`
	Workload  string  `json:"workload"`
	WallNS    int64   `json:"wall_ns"`
	Packets   int     `json:"packets"`
	LatencyNS float64 `json:"latency_ns"`
	Cycles    float64 `json:"cycles"`
	Instrs    float64 `json:"instrs"`
	L3Misses  float64 `json:"l3_misses"`
	Mpps      float64 `json:"mpps"`
}

type replayResult struct {
	Measurements []replayMeasurement `json:"measurements"`
	PeakRSSMB    float64             `json:"peak_rss_mb"`
	Spans        []span              `json:"spans,omitempty"`
}

// childMain runs one child mode and exits. A child receives only
// generated inputs: names, seeds and file paths, never the master seed.
func childMain(args []string) {
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	var (
		name     = fs.String("nf", "", "NF to analyze")
		seed     = fs.Uint64("seed", 0, "analysis / DUT seed")
		storeDir = fs.String("store", "", "artifact store directory")
		dir      = fs.String("dir", "", "output directory")
		jobs     = fs.String("jobs", "", "replay job file")
		traced   = fs.Bool("traced", false, "record spans and telemetry")
	)
	mode := args[0]
	_ = fs.Parse(args[1:])
	var tr *tracer
	if *traced {
		tr = &tracer{}
	}
	var out any
	var err error
	switch mode {
	case "analyze":
		out, err = childAnalyze(tr, *name, *seed, *storeDir, *dir)
	case "replay":
		out, err = childReplay(tr, *jobs, *seed)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// childAnalyze mirrors cmd/castan through public functions only: build
// the NF, build the DUT, analyze, write report and PCAP, validate.
func childAnalyze(tr *tracer, name string, seed uint64, storeDir, dir string) (*analyzeResult, error) {
	sp := tr.begin("", "nf.New", 0)
	inst, err := nf.New(name)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("", "memsim.New", 0)
	hier := memsim.New(memsim.DefaultGeometry(), seed)
	tr.end(sp)

	cfg := castan.Config{NPackets: analysisPkts, MaxStates: analysisState, Seed: seed, Workers: procs}
	if storeDir != "" {
		if cfg.Store, err = store.Open(storeDir); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		// Telemetry and the counting meter ride only on traced passes;
		// end-to-end samples run the pipeline bare.
		cfg.Obs = obs.New(nil)
		cfg.Budget = budget.New(0)
	}
	sp = tr.begin("", "castan.Analyze", 0)
	res, err := castan.Analyze(inst, hier, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("", "castan.WriteReport", 0)
	err = res.WriteReportFile(filepath.Join(dir, name+".report.json"))
	if err == nil {
		err = pcap.WriteFile(filepath.Join(dir, name+".pcap"), res.Frames)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	out := &analyzeResult{NF: name, Degraded: res.Degraded(), BudgetTicks: res.BudgetTicksUsed, Telemetry: res.Telemetry}
	sp = tr.begin("", "castan.Validate", 0)
	out.ValidateInstrs, err = castan.Validate(name, res.Frames)
	tr.end(sp)
	if err != nil {
		out.ValidateErr = err.Error()
	}
	out.PeakRSSMB = peakRSSMB("self")
	if tr != nil {
		out.Spans = tr.spans
	}
	return out, nil
}

// childReplay measures every job of one replay pass in this process.
func childReplay(tr *tracer, jobFile string, seed uint64) (*replayResult, error) {
	data, err := os.ReadFile(jobFile)
	if err != nil {
		return nil, err
	}
	var jobs []replayJob
	if err := json.Unmarshal(data, &jobs); err != nil {
		return nil, err
	}
	loaded := map[string]*workload.Workload{}
	out := &replayResult{}
	for _, j := range jobs {
		wl := loaded[j.PCAP]
		if wl == nil {
			if wl, err = workload.FromPCAP(j.Name, j.PCAP); err != nil {
				return nil, err
			}
			loaded[j.PCAP] = wl
		}
		sp := tr.begin("", "testbed.Measure:"+j.NF, 0)
		start := time.Now()
		m, err := testbed.Measure(j.NF, wl, testbed.Options{Seed: seed, MeasureCap: replayCap})
		wall := time.Since(start)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", j.NF, j.Name, err)
		}
		out.Measurements = append(out.Measurements, replayMeasurement{
			NF: j.NF, Workload: j.Name, WallNS: wall.Nanoseconds(),
			Packets:   len(wl.Frames) + replayCap,
			LatencyNS: m.Latency.Median(), Cycles: m.Cycles.Median(),
			Instrs: m.Instrs.Median(), L3Misses: m.L3Misses.Median(), Mpps: m.ThroughputMpps,
		})
	}
	out.PeakRSSMB = peakRSSMB("self")
	if tr != nil {
		out.Spans = tr.spans
	}
	return out, nil
}

// peakRSSMB reads a process's resident-set high-water mark ("self" or a
// pid). A child reports its own: the rusage its parent gets back would
// also count the parent's pages, which a child shares until it execs.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// spawn re-executes the harness as a child, waits for it and decodes the
// result it printed into result. The wall time returned is spawn to exit.
func spawn(self string, result any, args ...string) (time.Duration, error) {
	cmd := exec.Command(self, append([]string{"-child"}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	wall := time.Since(start)
	if err != nil {
		return wall, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(out, result); err != nil {
		return wall, fmt.Errorf("child %v: result: %w", args, err)
	}
	return wall, nil
}
