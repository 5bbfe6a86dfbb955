package castan

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"castan/internal/obs"
	"castan/internal/packet"
)

// The paper's tool emits two files per path: the concrete test (which we
// export as PCAP via internal/pcap) and a per-packet CPU-model metrics
// file used to "predict the performance envelope of each path". Report is
// that second file, as JSON.

// Report is the serializable analysis summary.
type Report struct {
	NF                  string         `json:"nf"`
	Packets             []PacketReport `json:"packets"`
	Instrs              uint64         `json:"instructions"`
	Loads               uint64         `json:"loads"`
	Stores              uint64         `json:"stores"`
	ExpectDRAM          uint64         `json:"expected_dram_accesses"`
	ExpectHit           uint64         `json:"expected_cache_hits"`
	HavocsTotal         int            `json:"havocs_total"`
	HavocsReconciled    int            `json:"havocs_reconciled"`
	ContentionSetsFound int            `json:"contention_sets_found"`
	// StepsToWorstPath is how many state pops the searcher needed before
	// the state that ended up best completed.
	StepsToWorstPath int `json:"steps_to_worst_path,omitempty"`
	// StatesExplored, Forks and AnalysisSeconds describe the effort
	// (Table 4); the last is wall-clock.
	StatesExplored  int     `json:"states_explored"`
	Forks           int     `json:"forks"`
	AnalysisSeconds float64 `json:"analysis_seconds"`
	// Degradations lists the stages the run had to cut short (absent for
	// a clean run); a consumer seeing any entry knows the workload is
	// best-effort rather than the full analysis.
	Degradations []StageDegradation `json:"degradations,omitempty"`
	// UnreconciledSites lists hash sites whose havocs were left
	// unreconciled (sorted hash IDs; absent when every site reconciled).
	// They occur in healthy runs too (§5.4's related-key failure); under
	// degradation the list flags which parts of the workload rest on
	// unconstrained hash outputs.
	UnreconciledSites []int `json:"unreconciled_sites,omitempty"`
	// BudgetTicksUsed is the deterministic tick total the run consumed
	// (absent when no budget meter was configured).
	BudgetTicksUsed uint64 `json:"budget_ticks_used,omitempty"`
	// Telemetry is the observability snapshot (absent unless the run was
	// instrumented via Config.Obs).
	Telemetry *obs.Metrics `json:"telemetry,omitempty"`
}

// PacketReport describes one synthesized packet.
type PacketReport struct {
	Index           int    `json:"index"`
	Flow            string `json:"flow"`
	PredictedCycles uint64 `json:"predicted_cycles"`
}

// packetReports describes each frame of a workload: its flow, and the
// cycles the chosen path predicts for it (0 past the last packet a
// partial state reached).
func packetReports(frames [][]byte, cycles []uint64) []PacketReport {
	var prs []PacketReport
	for i, fr := range frames {
		pr := PacketReport{Index: i}
		if i < len(cycles) {
			pr.PredictedCycles = cycles[i]
		}
		if p, err := packet.Parse(fr); err == nil {
			pr.Flow = p.Tuple().String()
		}
		prs = append(prs, pr)
	}
	return prs
}

// WriteReport serializes the report as indented JSON.
func (o *Output) WriteReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&o.Report)
}

// WriteReportFile writes the report to a file.
func (o *Output) WriteReportFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := o.WriteReport(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadReport loads a report back (for tooling that post-processes runs).
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("castan: decode report: %w", err)
	}
	return &rep, nil
}

// Check validates the report's structural invariants: a named NF
// (matching expectNF when non-empty), a non-empty packet list with dense
// 0-based indices, and complete degradation records. It is the shared
// schema gate behind castan reportcheck and the castand service contract —
// every HTTP 200 response, however degraded, must pass it.
func (r *Report) Check(expectNF string) error {
	if r == nil {
		return fmt.Errorf("report is nil")
	}
	if r.NF == "" {
		return fmt.Errorf("report names no NF")
	}
	if expectNF != "" && r.NF != expectNF {
		return fmt.Errorf("report is for NF %q, want %q", r.NF, expectNF)
	}
	if len(r.Packets) == 0 {
		return fmt.Errorf("report carries no packets")
	}
	for i, p := range r.Packets {
		if p.Index != i {
			return fmt.Errorf("packet %d has index %d", i, p.Index)
		}
	}
	for _, d := range r.Degradations {
		if d.Stage == "" || d.Reason == "" || d.Fallback == "" {
			return fmt.Errorf("incomplete degradation record %+v", d)
		}
	}
	return nil
}

// SameOutcome reports whether two reports describe the identical
// analysis outcome. Only the run-dependent fields — wall-clock time and
// the telemetry snapshot — are exempt; everything else must match
// exactly. This is the determinism comparator behind reportcheck
// -compare and the service's worker-count invariance test.
func (r *Report) SameOutcome(other *Report) bool {
	if r == nil || other == nil {
		return r == other
	}
	a, b := *r, *other
	a.AnalysisSeconds, b.AnalysisSeconds = 0, 0
	a.Telemetry, b.Telemetry = nil, nil
	return reflect.DeepEqual(a, b)
}
