package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// harness holds what every workload needs from the process: the two
// binaries it starts and a scratch directory it owns.
type harness struct {
	self    string // this binary, re-executed for child analyses and replays
	castand string
	scratch string
	nextDir int
}

// dir makes a fresh directory under the scratch root.
func (h *harness) dir(label string) (string, error) {
	h.nextDir++
	d := filepath.Join(h.scratch, fmt.Sprintf("%s-%d", label, h.nextDir))
	return d, os.MkdirAll(d, 0o755)
}

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// pass sweeps the workload's inputs once; tr is nil on untimed-trace
	// (end-to-end) passes.
	pass(tr *tracer, n int) passOutcome
	// quality runs after the passes, untimed: the simulated cycles per
	// packet of what the workload produced, and any correctness problems
	// only visible across passes.
	quality() (cyclesPerPkt float64, problems []string)
	close()
}

// passOutcome is what one pass produced.
type passOutcome struct {
	wall      time.Duration
	opMS      []float64 // one latency sample per successful operation
	rssMB     float64   // peak RSS of the pass's processes
	attempted int
	failed    int
	problems  []string
	// layer holds the per-layer values a traced pass observed.
	layer map[string]float64
}

// options is one invocation's shape. Seed is the only input that shapes
// load.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// result is one workload's run.
type result struct {
	Workload string `json:"workload"`
	Passes   int    `json:"passes"`
	// Disturbed counts the passes left out of the timing medians because
	// the hypervisor took the CPUs away while they ran.
	Disturbed int                  `json:"disturbed_passes"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	WallS     float64              `json:"wall_s"`
	Metrics   map[string]float64   `json:"metrics"`
	Samples   map[string][]float64 `json:"-"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// runWorkload sets the workload up (several times, for the setup_s
// median), measures passes for opt.seconds, then checks the outputs. A
// traced run alternates untraced and traced passes and finishes with the
// isolated per-layer drives.
func runWorkload(h *harness, w *workloadSpec, opt options) (*result, error) {
	begin := time.Now()
	res := &result{Workload: w.Name, Metrics: map[string]float64{}, Samples: map[string][]float64{}}

	reps := w.setupReps
	if opt.trace {
		reps = 1
	}
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(h, opt.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		res.Samples["setup_s"] = append(res.Samples["setup_s"], time.Since(start).Seconds())
	}
	defer inst.close()

	var tr *tracer
	if opt.trace {
		tr = &tracer{}
	}
	var samples []passSample
	var layers []map[string]float64
	var rssMB []float64 // peak RSS per pass; memory is not a timing, so no pass is left out
	budget := time.Duration(opt.seconds * float64(time.Second))
	minPasses := 1
	if opt.trace {
		minPasses = 2 // one untraced reference, one traced
	}
	for start := time.Now(); res.Passes < minPasses || time.Since(start) < budget; res.Passes++ {
		traced := opt.trace && res.Passes%2 == 1
		var passTr *tracer
		if traced {
			passTr = tr
		}
		stolen, began := stealTicks(), time.Now()
		out := inst.pass(passTr, res.Passes)
		disturbed := isDisturbed(stealTicks()-stolen, time.Since(began))
		if disturbed {
			res.Disturbed++
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Problems = append(res.Problems, out.problems...)
		rssMB = append(rssMB, out.rssMB)
		samples = append(samples, passSample{traced: traced, disturbed: disturbed, wallS: out.wall.Seconds(), opMS: out.opMS})
		if traced {
			layers = append(layers, out.layer)
		}
	}
	passS, opMS := timingsOf(samples, false)
	res.Samples["pass_s"], res.Samples["proc.peak_rss_mb"] = passS, rssMB
	res.Samples["latency_p50_ms"], res.Samples["latency_p95_ms"] = opMS, opMS
	cycles, problems := inst.quality()
	res.Problems = append(res.Problems, problems...)
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}

	if !opt.trace {
		res.Metrics["setup_s"] = median(res.Samples["setup_s"])
		res.Metrics["pass_s"] = median(passS)
		res.Metrics["latency_p50_ms"] = median(opMS)
		res.Metrics["adv_cycles_per_pkt"] = cycles
	} else {
		// A traced pass's values are medians over the traced passes;
		// names a workload never touches stay 0.
		for _, m := range perLayer {
			var vals []float64
			for _, l := range layers {
				if v, ok := l[m.Name]; ok {
					vals = append(vals, v)
				}
			}
			res.Metrics[m.Name] = median(vals)
		}
		res.Metrics["proc.peak_rss_mb"] = median(rssMB)
		res.Metrics["latency_p95_ms"] = percentile(opMS, 95) // of the untraced passes
		if ref := median(passS); ref > 0 {
			tracedPassS, _ := timingsOf(samples, true)
			res.Metrics["trace.overhead_share"] = median(tracedPassS)/ref - 1
		}
		if n := selfCount(tr.spans, "child"); n > 0 {
			res.Metrics["bench.child_overhead_ms"] = selfTimes(tr.spans)["child"].Seconds() * 1e3 / float64(n)
		}
		drives, problems := driveLayers(h, opt.seed)
		res.Problems = append(res.Problems, problems...)
		for name, v := range drives {
			res.Metrics[name] = v
		}
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeFile(filepath.Join(traceDir, "trace-"+w.Name+".jsonl")); err != nil {
			return nil, err
		}
	}
	res.WallS = time.Since(begin).Seconds()
	return res, nil
}

// passSample is the timing of one pass.
type passSample struct {
	traced, disturbed bool
	wallS             float64
	opMS              []float64
}

// timingsOf gathers the pass times and operation latencies of the traced
// (or untraced) passes, leaving out the disturbed ones unless that would
// leave nothing.
func timingsOf(samples []passSample, traced bool) (passS, opMS []float64) {
	for _, withDisturbed := range []bool{false, true} {
		for _, s := range samples {
			if s.traced == traced && (withDisturbed || !s.disturbed) {
				passS = append(passS, s.wallS)
				opMS = append(opMS, s.opMS...)
			}
		}
		if len(passS) > 0 {
			break
		}
	}
	return passS, opMS
}

// stealTicks reads how long the hypervisor has kept this machine's CPUs
// from it, in USER_HZ ticks (0 where /proc/stat does not say).
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0
	}
	n, _ := strconv.ParseUint(fields[8], 10, 64)
	return n
}

// isDisturbed reports whether more than a hundredth of the CPU time a
// pass could have had was stolen. The signal is independent of how long
// the pass took, so dropping such passes does not bias the median.
func isDisturbed(ticks uint64, elapsed time.Duration) bool {
	const userHZ = 100
	stolen := float64(ticks) / userHZ
	return stolen > 0.01*elapsed.Seconds()*float64(runtime.NumCPU())
}

func selfCount(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// print writes the run for a reader: every metric by name with its unit
// and, where there are samples behind it, their count and range.
func (r *result) print(w io.Writer, specs []metricSpec) {
	verdict := "correct"
	if !r.correct() {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "workload %-12s %d passes (%d disturbed by hypervisor steal), %d operations, %d failed, %s, %.1f s\n",
		r.Workload, r.Passes, r.Disturbed, r.Attempted, r.Failed, verdict, r.WallS)
	for _, m := range specs {
		line := fmt.Sprintf("  %-34s %14.4f %-7s", m.Name, r.Metrics[m.Name], m.Unit)
		if s := r.Samples[m.Name]; len(s) > 0 {
			line += fmt.Sprintf(" n=%-4d min %.4f max %.4f", len(s), slices.Min(s), slices.Max(s))
		}
		fmt.Fprintln(w, line)
	}
	sort.Strings(r.Problems)
	for i, p := range r.Problems {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more problems\n", len(r.Problems)-10)
			break
		}
		fmt.Fprintln(w, "  problem:", p)
	}
}
