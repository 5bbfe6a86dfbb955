// irlint runs the full static-analysis pass pipeline (structural
// validation, def-before-use, register liveness, memory-region extent
// checks) over IR modules and reports structured findings. It is the CI
// gate that keeps every built-in NF — and therefore every module the
// examples run — clean before symbolic execution ever sees it.
//
//	irlint             # lint every NF in the built-in catalog
//	irlint lpm-trie    # lint selected NFs
//	irlint -v          # also print info-level findings (dead defs)
//	irlint -werror     # treat warnings as failures
//	irlint -json       # machine-readable output (includes cachecost stats)
//
// With -json the output is a single castan-irlint/v1 document: per module,
// the findings (each carrying source coordinates: function, block index,
// instruction index) plus the abstract cache analysis's classification
// summary (always-hit / always-miss / unclassified counts and the
// unclassified ratio per function).
//
// Structurally clean modules additionally get the input-taint dataflow
// pass: adversary-controllability findings flag every load/store whose
// address the input controls — ranked by whether the access stays
// cache-resident or reaches a DRAM-cost region — and classify each hash
// site's key as input-independent or adversary-controlled.
//
// Exit status is non-zero iff any module produced an error-level finding
// (or, with -werror, a warning).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"castan/internal/analysis"
	"castan/internal/analysis/cachecost"
	"castan/internal/analysis/taint"
	"castan/internal/analysis/vrange"
	"castan/internal/ir"
	"castan/internal/nf"
)

func main() {
	verbose := flag.Bool("v", false, "print info-level findings too")
	werror := flag.Bool("werror", false, "treat warnings as errors")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (castan-irlint/v1)")
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		names = nf.Names
	}
	var mods []*ir.Module
	for _, name := range names {
		inst, err := nf.New(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irlint: %v\n", err)
			os.Exit(1)
		}
		mods = append(mods, inst.Mod)
	}
	os.Exit(run(mods, *verbose, *werror, *jsonOut, os.Stdout))
}

// jsonDoc is the -json output: one castan-irlint/v1 document.
type jsonDoc struct {
	Schema  string       `json:"schema"`
	Modules []jsonModule `json:"modules"`
}

type jsonModule struct {
	Module    string        `json:"module"`
	Errors    int           `json:"errors"`
	Warnings  int           `json:"warnings"`
	Findings  []jsonFinding `json:"findings"`
	CacheCost jsonCacheCost `json:"cachecost"`
}

type jsonFinding struct {
	Sev  string `json:"sev"`
	Pass string `json:"pass"`
	Ref  string `json:"ref"`
	// Source coordinates of the program point Ref renders: the function
	// name ("" for module-level findings), the block index within the
	// function, and the instruction index within the block (-1 when the
	// finding anchors to a whole function or block).
	Fn    string `json:"fn"`
	Block int    `json:"block"`
	Instr int    `json:"instr"`
	Msg   string `json:"msg"`
}

type jsonCacheCost struct {
	Geometry  jsonGeometry   `json:"geometry"`
	Functions []jsonFuncCost `json:"functions"`
}

type jsonGeometry struct {
	Ways      int `json:"ways"`
	LineBytes int `json:"line_bytes"`
}

type jsonFuncCost struct {
	Fn                string  `json:"fn"`
	MemInstrs         int     `json:"mem_instrs"`
	AlwaysHit         int     `json:"always_hit"`
	AlwaysMiss        int     `json:"always_miss"`
	Unclassified      int     `json:"unclassified"`
	UnclassifiedRatio float64 `json:"unclassified_ratio"`
	// StaticBound is the whole-function worst-case cycle bound; absent
	// when a data-dependent loop leaves the function unbounded.
	StaticBound uint64 `json:"static_bound,omitempty"`
	AcyclicPath uint64 `json:"acyclic_path_bound"`
}

// run lints each module in turn and returns the process exit code: 1 if
// any module has an error-level finding (or a warning under werror),
// 0 otherwise.
func run(mods []*ir.Module, verbose, werror, jsonOut bool, w io.Writer) int {
	minSev := analysis.SevWarn
	if verbose {
		minSev = analysis.SevInfo
	}
	doc := jsonDoc{Schema: "castan-irlint/v1"}
	failed := false
	for _, mod := range mods {
		rep := analysis.Lint(mod, analysis.Options{
			EntryHints: analysis.NFEntryHints(),
			NoDeadDefs: !verbose,
		})
		// Structurally clean modules get the cache-cost summary and the
		// taint controllability pass; their findings merge into the lint
		// report (deduplicated — taint flags accesses the extent checks
		// may already have mentioned) before counting and rendering.
		var cc *cachecost.Analysis
		if !rep.HasErrors() {
			mf, mr := rep.Facts, rep.Regions
			cc = cachecost.Run(mf, mr, cachecost.Config{Geometry: cachecost.DefaultGeometry()})
			ta := taint.Run(mf, mr, taint.Config{EntryHints: taint.NFEntryTaints()})
			rep.Findings = append(rep.Findings, ta.Controllability(cc)...)
			vr := vrange.Run(mf, vrange.Config{EntryHints: vrange.NFEntryRanges()})
			rep.Findings = append(rep.Findings, vr.Findings()...)
			rep.Dedup()
			rep.Sort()
		}
		if jsonOut {
			doc.Modules = append(doc.Modules, jsonify(mod, rep, minSev, cc))
		} else if err := rep.Write(w, minSev); err != nil {
			fmt.Fprintf(os.Stderr, "irlint: %v\n", err)
			return 2
		}
		if rep.HasErrors() || (werror && rep.Count(analysis.SevWarn) > 0) {
			failed = true
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "irlint: %v\n", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

// jsonify packages one module's report plus its cache-classification
// summary. cc is the caller's cache analysis at the default geometry (the
// simulated L3's associativity and line size) with no contention-set
// model — the most conservative classification, which is the right
// baseline for a lint gate; nil when the module had errors.
func jsonify(mod *ir.Module, rep *analysis.Report, minSev analysis.Severity, cc *cachecost.Analysis) jsonModule {
	jm := jsonModule{
		Module:   rep.Module,
		Errors:   rep.Count(analysis.SevError),
		Warnings: rep.Count(analysis.SevWarn),
		Findings: []jsonFinding{},
	}
	for _, f := range rep.Findings {
		if f.Sev > minSev {
			continue
		}
		jf := jsonFinding{
			Sev:   f.Sev.String(),
			Pass:  f.Pass,
			Ref:   f.Ref(),
			Block: -1,
			Instr: -1,
			Msg:   f.Msg,
		}
		if f.Fn != nil {
			jf.Fn = f.Fn.Name
		}
		if f.Block != nil {
			jf.Block = f.Block.Index
			jf.Instr = f.InstrIdx
		}
		jm.Findings = append(jm.Findings, jf)
	}
	geo := cachecost.DefaultGeometry()
	jm.CacheCost.Geometry = jsonGeometry{Ways: geo.Ways, LineBytes: geo.LineBytes}
	jm.CacheCost.Functions = []jsonFuncCost{}
	if cc == nil {
		// A structurally broken module would feed garbage to the abstract
		// interpreter; findings alone are the story here.
		return jm
	}
	for _, name := range cc.FuncNames() {
		f := mod.Funcs[name]
		st := cc.FuncStats(f)
		jf := jsonFuncCost{
			Fn:                name,
			MemInstrs:         st.Mem,
			AlwaysHit:         st.AlwaysHit,
			AlwaysMiss:        st.AlwaysMiss,
			Unclassified:      st.Unclassified,
			UnclassifiedRatio: math.Round(st.UnclassifiedRatio()*10000) / 10000,
			AcyclicPath:       cc.AcyclicPathBound(f),
		}
		if b, ok := cc.FuncBound(f); ok {
			jf.StaticBound = b
		}
		jm.CacheCost.Functions = append(jm.CacheCost.Functions, jf)
	}
	return jm
}
