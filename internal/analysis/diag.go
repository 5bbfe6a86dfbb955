package analysis

import (
	"fmt"
	"io"
	"sort"

	"castan/internal/ir"
)

// Severity ranks findings. Errors mean the module is wrong and must not
// reach symbolic execution; warnings mean a property could not be proven
// safe (typically data-dependent extents); infos are advisory.
type Severity int

// Severities, most severe first.
const (
	SevError Severity = iota
	SevWarn
	SevInfo
)

// String returns the severity label.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarn:
		return "warn"
	case SevInfo:
		return "info"
	}
	return fmt.Sprintf("sev(%d)", int(s))
}

// Finding is one structured diagnostic anchored at an instruction (or a
// whole block/function when InstrIdx is -1).
type Finding struct {
	Pass     string // producing pass: "validate", "defuse", "liveness" or "memregion"
	Sev      Severity
	Fn       *ir.Func
	Block    *ir.Block
	InstrIdx int
	Msg      string
}

// Ref renders the finding's program point as func/block/idx.
func (f Finding) Ref() string {
	switch {
	case f.Fn == nil:
		return "module"
	case f.Block == nil:
		return f.Fn.Name
	case f.InstrIdx < 0:
		return f.Fn.Name + "/" + f.Block.Name
	default:
		return instrRef(f.Fn, f.Block, f.InstrIdx)
	}
}

// String renders "sev pass ref: msg [instr]".
func (f Finding) String() string {
	s := fmt.Sprintf("%s %s %s: %s", f.Sev, f.Pass, f.Ref(), f.Msg)
	if f.Block != nil && f.InstrIdx >= 0 && f.InstrIdx < len(f.Block.Instrs) {
		s += fmt.Sprintf("  [%s]", f.Block.Instrs[f.InstrIdx].Disassemble())
	}
	return s
}

// Report collects the findings of a pass pipeline run.
type Report struct {
	Module   string
	Findings []Finding
}

func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

// Count returns how many findings have the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Sev == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any finding is an error.
func (r *Report) HasErrors() bool { return r.Count(SevError) > 0 }

// Sort orders findings by severity, then function name, block index, and
// instruction index, so output is deterministic and the worst news leads.
func (r *Report) Sort() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Sev != b.Sev {
			return a.Sev < b.Sev
		}
		an, bn := "", ""
		if a.Fn != nil {
			an = a.Fn.Name
		}
		if b.Fn != nil {
			bn = b.Fn.Name
		}
		if an != bn {
			return an < bn
		}
		ai, bi := -1, -1
		if a.Block != nil {
			ai = a.Block.Index
		}
		if b.Block != nil {
			bi = b.Block.Index
		}
		if ai != bi {
			return ai < bi
		}
		return a.InstrIdx < b.InstrIdx
	})
}

// Write renders the report, findings at or above minSev, one per line.
func (r *Report) Write(w io.Writer, minSev Severity) error {
	for _, f := range r.Findings {
		if f.Sev > minSev {
			continue
		}
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s: %d error(s), %d warning(s), %d info\n",
		r.Module, r.Count(SevError), r.Count(SevWarn), r.Count(SevInfo))
	return err
}

// Options tunes a Lint run.
type Options struct {
	// EntryHints seeds the memory-region pass with the calling convention
	// of root functions: for each named function, the abstract values of
	// its parameters. Functions absent from the map (and root functions
	// without hints) start with unknown parameters.
	EntryHints map[string][]Value
	// NoDeadDefs suppresses the Info-level dead-definition findings.
	NoDeadDefs bool
}

// NFEntryHints returns the hints for the repository's NF calling
// convention: nf_process(pktAddr, pktLen) is always invoked by the
// harness with the packet slot's base address and a frame length within
// the slot.
func NFEntryHints() map[string][]Value {
	return map[string][]Value{
		"nf_process": {
			PacketPtr(0),
			NumRange(0, ir.PacketSlot),
		},
	}
}

// Lint runs the full pass pipeline over a module and returns the merged,
// sorted report: structural validation, def-before-use, the memory-region
// extent checks, and liveness advisories. The module must already be laid
// out (globals addressed); Lint does not mutate it.
func Lint(mod *ir.Module, opts Options) *Report {
	rep := &Report{Module: mod.Name}
	if err := mod.Validate(); err != nil {
		// Structural breakage makes deeper passes unreliable; report and
		// stop. The error text already carries the program point.
		rep.add(Finding{Pass: "validate", Sev: SevError, Msg: err.Error()})
		return rep
	}
	mf := ForModule(mod)
	for _, name := range mf.FuncNames {
		f := mod.Funcs[name]
		fa := mf.Funcs[f]
		checkDefBeforeUse(f, fa, rep)
		if !opts.NoDeadDefs {
			checkDeadDefs(f, fa, rep)
		}
	}
	RunMemRegions(mf, opts.EntryHints).report(rep)
	rep.Sort()
	return rep
}
