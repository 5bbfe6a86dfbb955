// castan lint runs the static-analysis pass pipeline (structural
// validation, def-before-use, register liveness, memory-region extent
// checks) over the NFs named as arguments, or the whole built-in catalog,
// and reports structured findings: the gate that keeps every module clean
// before symbolic execution sees it. With -json the output is one
// castan-irlint/v2 document: per module, the counts and the findings with
// their source coordinates.
//
// Exit status is non-zero iff any module produced an error-level finding
// (or, with -werror, a warning).

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"castan/internal/analysis"
	"castan/internal/ir"
	"castan/internal/nf"
)

func lintCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan lint", stderr)
	verbose := fs.Bool("v", false, "print info-level findings too")
	werror := fs.Bool("werror", false, "treat warnings as errors")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (castan-irlint/v2)")
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

// lintSchema tags the -json document. Bump it whenever a field goes or
// changes meaning, so an old reader fails loudly instead of reading
// nothing.
const lintSchema = "castan-irlint/v2"

// jsonDoc is the -json output: one castan-irlint/v2 document.
type jsonDoc struct {
	Schema  string       `json:"schema"`
	Modules []jsonModule `json:"modules"`
}

type jsonModule struct {
	Module   string        `json:"module"`
	Errors   int           `json:"errors"`
	Warnings int           `json:"warnings"`
	Findings []jsonFinding `json:"findings"`
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

// lintModules lints each module in turn, rendering the findings into w,
// and returns the exit code: 1 if any module has an error-level finding
// (or a warning under werror), 0 otherwise.
func lintModules(mods []*ir.Module, verbose, werror, jsonOut bool, w *bytes.Buffer) int {
	minSev := analysis.SevWarn
	if verbose {
		minSev = analysis.SevInfo
	}
	doc := jsonDoc{Schema: lintSchema}
	failed := false
	for _, mod := range mods {
		rep := analysis.Lint(mod, analysis.Options{
			EntryHints: analysis.NFEntryHints(),
			NoDeadDefs: !verbose,
		})
		if jsonOut {
			doc.Modules = append(doc.Modules, jsonify(rep, minSev))
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

// jsonify packages one module's report: its counts and the findings at
// or above minSev.
func jsonify(rep *analysis.Report, minSev analysis.Severity) jsonModule {
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
	return jm
}
