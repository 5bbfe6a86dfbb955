// Command castan analyzes a network function and synthesizes an
// adversarial workload, writing it as a PCAP file together with the
// per-packet predicted performance metrics — the reproduction of the
// paper's analysis tool. Its subcommands, each with its own flag set
// (castan <subcommand> -h), are the tool's companions:
//
//	castan -nf lpm-dl1 -packets 40 -out adversarial.pcap   # the analysis
//	castan reportcheck -report report.json -nf lpm-trie    # gate a metrics report
//	castan rainbow -hash table -bits 12 -coverage 8        # one §3.5 table's coverage
//	castan contention -lines 2600 -sets 6                  # §3.2 discovery on a bare region
//	castan bench -compare results/BENCH_castan.json        # record or gate effort counters
//	castan lint -werror lpm-trie                           # the IR structural gate
//	castan tracediff -base a.json -new b.json              # attribute telemetry deltas
//	castan tracediff check -trace t.json -metrics m.json   # validate one run's artifacts
//	castan testbed -figure 4                               # the §5 measurement campaign
//
// The analysis exits 0 when clean, 1 on failure, 2 on a usage error and
// 3 when degraded (a budget or deadline cut a stage short and the
// emitted workload is best-effort; see the "degradations" report field).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"

	"castan/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps each subcommand to its entry point, which parses its own
// flags from args and returns the process exit code.
var commands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"reportcheck": reportcheckCmd,
	"rainbow":     rainbowCmd,
	"contention":  contentionCmd,
	"bench":       benchCmd,
	"lint":        lintCmd,
	"tracediff":   tracediffCmd,
	"testbed":     testbedCmd,
}

// run runs the analysis unless args start with a subcommand.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return analyzeCmd(args, stdout, stderr)
	}
	if cmd, ok := commands[args[0]]; ok {
		return cmd(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "castan: unknown subcommand %q; subcommands: %s\n", args[0], subcommandList())
	return 2
}

func subcommandList() string {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// newFlagSet returns a flag set that reports to stderr; its caller
// returns parseExit of a failed Parse.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseExit is 0 after -h and 2 for a bad flag, as with flag.ExitOnError.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// fail reports err under the command's name and returns exit code 1.
func fail(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}

// writeJSONFile writes v to path as indented JSON.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// telemetry is the observability flag group the analysis and the testbed
// share: -trace, -metrics-out, -cpuprofile, -progress and -httpdebug.
type telemetry struct {
	trace, metrics, cpuProf, httpDbg string
	progress                         bool

	rec  *obs.Recorder // nil unless a flag asked for telemetry
	prof *os.File
}

// register adds the flags to fs; subject names what they observe.
func (t *telemetry) register(fs *flag.FlagSet, subject string) {
	fs.StringVar(&t.trace, "trace", "", "write a Chrome trace_event file (load in chrome://tracing or ui.perfetto.dev) of "+subject+" to this path")
	fs.StringVar(&t.metrics, "metrics-out", "", "write the counters/gauges/histograms/phases (JSON) of "+subject+" to this path")
	fs.StringVar(&t.cpuProf, "cpuprofile", "", "write a pprof CPU profile to this path")
	fs.BoolVar(&t.progress, "progress", false, "render live progress of "+subject+" on stderr")
	fs.StringVar(&t.httpDbg, "httpdebug", "", "serve net/http/pprof and a /metricsz live metrics snapshot on this address (e.g. localhost:6060); local profiling only — never expose beyond localhost")
}

// start creates the recorder when a flag (or want) needs one, then starts
// the debug server and the CPU profile. The caller defers stop, so the
// profile is flushed on every exit path.
func (t *telemetry) start(want bool, stdout, stderr io.Writer) error {
	if want || t.trace != "" || t.metrics != "" || t.progress || t.httpDbg != "" {
		// CLI runs use the wall clock: trace durations are real time.
		t.rec = obs.New(nil)
	}
	if t.progress {
		t.rec.Subscribe(obs.NewTTYRenderer(stderr))
	}
	if t.httpDbg != "" {
		ln, err := obs.ServeDebug(t.httpDbg, t.rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "debug server on http://%s (/debug/pprof/, /metricsz) — local profiling only\n", ln.Addr())
	}
	if t.cpuProf != "" {
		f, err := os.Create(t.cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		t.prof = f
	}
	return nil
}

func (t *telemetry) stop() {
	if t.prof != nil {
		pprof.StopCPUProfile()
		t.prof.Close()
	}
}

// finish writes the -trace and -metrics-out files, announcing each on
// stdout under the given names.
func (t *telemetry) finish(m *obs.Metrics, traceName, metricsName string, stdout io.Writer) error {
	if t.trace != "" {
		if err := t.rec.WriteChromeTraceFile(t.trace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s to %s\n", traceName, t.trace)
	}
	if t.metrics != "" {
		if err := m.WriteJSONFile(t.metrics); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s to %s\n", metricsName, t.metrics)
	}
	return nil
}
