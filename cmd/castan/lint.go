// castan lint runs the full static-analysis pass pipeline (structural
// validation, def-before-use, register liveness, memory-region extent
// checks) over the NFs named as arguments, or the whole built-in catalog,
// and reports structured findings: the gate that keeps every module clean
// before symbolic execution sees it. Structurally clean modules also get
// the input-taint pass (adversary-controllability findings) and the
// value-range pass. With -json the output is one castan-irlint/v1
// document: per module, the findings with their source coordinates plus
// the abstract cache analysis's per-function classification summary.
//
// Exit status is non-zero iff any module produced an error-level finding
// (or, with -werror, a warning).

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"castan/internal/analysis"
	"castan/internal/analysis/cachecost"
	"castan/internal/analysis/taint"
	"castan/internal/analysis/vrange"
	"castan/internal/ir"
	"castan/internal/nf"
)

func lintCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan lint", stderr)
	verbose := fs.Bool("v", false, "print info-level findings too")
	werror := fs.Bool("werror", false, "treat warnings as errors")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (castan-irlint/v1)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	names := fs.Args()
	if len(names) == 0 {
		names = nf.Names
	}
	var mods []*ir.Module
	for _, name := range names {
		inst, err := nf.New(name)
		if err != nil {
			return fail(stderr, "lint", err)
		}
		mods = append(mods, inst.Mod)
	}
	var buf bytes.Buffer
	code := lintModules(mods, *verbose, *werror, *jsonOut, &buf)
	if _, err := stdout.Write(buf.Bytes()); err != nil {
		fmt.Fprintln(stderr, "lint:", err)
		return 2
	}
	return code
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

// lintModules lints each module in turn, rendering the findings into w,
// and returns the exit code: 1 if any module has an error-level finding
// (or a warning under werror), 0 otherwise.
func lintModules(mods []*ir.Module, verbose, werror, jsonOut bool, w *bytes.Buffer) int {
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
		} else {
			rep.Write(w, minSev)
		}
		if rep.HasErrors() || (werror && rep.Count(analysis.SevWarn) > 0) {
			failed = true
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			panic(err) // the document holds only encodable values
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
