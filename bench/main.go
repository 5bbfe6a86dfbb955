// Command bench is the repository's benchmark: six workloads over the
// CASTAN pipeline, the testbed and the castand service, each checked for
// correctness, reporting four end-to-end metrics per workload and, in a
// traced run, per-layer metrics for every module. README.md in this
// directory is the manual.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash bench/run.sh                                   every workload, end to end
//	bash bench/run.sh -workload cold-tree               one workload
//	bash bench/run.sh -workload cold-tree -trace 1      its traced run
//	bash bench/run.sh -selfcheck                        A/A: the whole set twice
//	bash bench/run.sh -spread 10                        run-to-run spread over 10 seeds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// traceDir is where a traced run leaves its span files.
const traceDir = "bench/out"

// driverLine is the last line of a single-workload run, the form the
// benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what -out writes: the numbers plus everything needed to
// decide whether two files are comparable.
type record struct {
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workers    int       `json:"workers"`
	GoVersion  string    `json:"go_version"`
	CPU        string    `json:"cpu"`
	Commit     string    `json:"commit"`
	TotalWallS float64   `json:"total_wall_s"`
	Results    []*result `json:"results"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		childMain(os.Args[2:])
	}
	var (
		workload  = flag.String("workload", "", "run only this workload (default: all six)")
		seed      = flag.Uint64("seed", 2018, "the only input that shapes load: analysis seeds, replay traffic and the request mix derive from it")
		seconds   = flag.Float64("seconds", 15, "how long each workload's timed passes run")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files under "+traceDir)
		selfcheck = flag.Bool("selfcheck", false, "A/A: run the whole set twice in alternating order and compare medians against the bounds")
		spread    = flag.Int("spread", 0, "run each workload this many times on consecutive seeds and print every metric's quartile spread")
		out       = flag.String("out", "", "also write results and the environment record to this JSON file")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	h, err := newHarness()
	if err != nil {
		fatal(err)
	}
	var code int
	switch {
	case *selfcheck:
		code, err = selfCheck(h, options{seed: *seed, seconds: *seconds})
	case *spread > 0:
		code, err = spreadCheck(h, options{seed: *seed, seconds: *seconds}, *spread, *workload)
	default:
		code, err = runOnce(h, options{seed: *seed, seconds: *seconds, trace: *trace == 1}, *workload, *out)
	}
	os.RemoveAll(h.scratch)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// newHarness finds the binaries next to this one (run.sh builds both)
// and claims a scratch directory beside them.
func newHarness() (*harness, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin := filepath.Dir(self)
	h := &harness{self: self, castand: filepath.Join(bin, "castand")}
	if _, err := os.Stat(h.castand); err != nil {
		return nil, fmt.Errorf("castand binary not found next to the harness (run through bench/run.sh): %w", err)
	}
	h.scratch = filepath.Join(filepath.Dir(bin), fmt.Sprintf("scratch-%d", os.Getpid()))
	return h, os.MkdirAll(h.scratch, 0o755)
}

// selected returns the named workload, or all of them for "".
func selected(name string) ([]*workloadSpec, error) {
	var out []*workloadSpec
	for i := range workloads {
		if name == "" || workloads[i].Name == name {
			out = append(out, &workloads[i])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}

// runOnce runs the selected workloads once and prints every metric; a
// single workload also gets the driver's JSON line last.
func runOnce(h *harness, opt options, name, outPath string) (int, error) {
	ws, err := selected(name)
	if err != nil {
		return 0, err
	}
	specs := endToEnd
	if opt.trace {
		specs = perLayer
	}
	begin := time.Now()
	rec := record{
		Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, Workers: procs,
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: gitCommit(),
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(h, w, opt)
		if err != nil {
			return 0, err
		}
		res.print(os.Stdout, specs)
		if !res.correct() {
			code = 1
		}
		rec.Results = append(rec.Results, res)
	}
	rec.TotalWallS = time.Since(begin).Seconds()
	if outPath != "" {
		data, err := json.MarshalIndent(rec, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			return 0, err
		}
	}
	if len(rec.Results) == 1 {
		res := rec.Results[0]
		line := driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
		for _, m := range specs {
			line.Metrics[m.Name] = driverValue{Value: res.Metrics[m.Name], Unit: m.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return 0, err
		}
		fmt.Println(string(data))
	}
	return code, nil
}

// selfCheck is the A/A test: the whole set twice, the second time in
// reverse order, comparing each (metric, workload) pair's two values
// against the metric's bound.
func selfCheck(h *harness, opt options) (int, error) {
	ws, _ := selected("")
	first, second := map[string]*result{}, map[string]*result{}
	for round, into := range []map[string]*result{first, second} {
		for i := range ws {
			w := ws[i]
			if round == 1 {
				w = ws[len(ws)-1-i]
			}
			res, err := runWorkload(h, w, opt)
			if err != nil {
				return 0, err
			}
			if !res.correct() {
				res.print(os.Stdout, endToEnd)
				return 1, nil
			}
			into[w.Name] = res
		}
	}
	code := 0
	fmt.Printf("| workload | metric | run A | run B | worse by | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, w := range ws {
		for _, m := range endToEnd {
			a, b := first[w.Name].Metrics[m.Name], second[w.Name].Metrics[m.Name]
			worse := worseBy(m, a, b)
			verdict := "ok"
			if worse > m.Bound {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f%% | %.0f%% | %s |\n", w.Name, m.Name, a, b, worse*100, m.Bound*100, verdict)
		}
	}
	return code, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spreadCheck measures steadiness the way the benchmark's bounds are
// judged: n runs per workload on consecutive seeds, then each metric's
// quartile distance as a share of its median.
func spreadCheck(h *harness, opt options, n int, name string) (int, error) {
	ws, err := selected(name)
	if err != nil {
		return 0, err
	}
	code := 0
	fmt.Printf("| workload | metric | median of %d | spread | bound | |\n|---|---|---|---|---|---|\n", n)
	for _, w := range ws {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			o := opt
			o.seed += uint64(i)
			res, err := runWorkload(h, w, o)
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %d passes, %d disturbed, pass_s %.4f\n", w.Name, o.seed, res.Passes, res.Disturbed, res.Metrics["pass_s"])
			if !res.correct() {
				res.print(os.Stdout, endToEnd)
				code = 1
			}
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name])
			}
		}
		for _, m := range endToEnd {
			s := quartileSpread(values[m.Name])
			verdict := "ok"
			switch {
			case m.Name == "setup_s": // judged on its median only
			case s > m.Bound:
				verdict, code = "EXCEEDS", 1
			case s > m.Bound/3:
				verdict = "above a third"
			}
			fmt.Printf("| %s | %s | %.4f | %.1f%% | %.0f%% | %s |\n", w.Name, m.Name, median(values[m.Name]), s*100, m.Bound*100, verdict)
		}
	}
	return code, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// gitCommit is best effort: the driver's checkout is not a repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
