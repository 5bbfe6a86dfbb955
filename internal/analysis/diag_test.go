package analysis

import (
	"bytes"
	"strings"
	"testing"

	"castan/internal/ir"
)

// diagFixture builds a two-block function so findings can anchor at real
// program points (Ref/String need Fn, Block, and a disassemblable instr).
func diagFixture(t *testing.T) *ir.Func {
	t.Helper()
	mod := ir.NewModule("diag")
	fb := mod.NewFunc("f", 1)
	p := fb.Param(0)
	out := fb.VarImm(0)
	fb.If(fb.CmpEqImm(p, 0), func() {
		out.Set(fb.Const(1))
	}, nil)
	fb.Ret(out.R())
	fb.Seal()
	mod.Layout()
	if err := mod.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return mod.Funcs["f"]
}

func TestSortOrdersBySeverityThenLocation(t *testing.T) {
	f := diagFixture(t)
	b0, b1 := f.Blocks[0], f.Blocks[1]
	rep := &Report{Module: "diag", Findings: []Finding{
		{Pass: "p", Sev: SevInfo, Fn: f, Block: b0, InstrIdx: 0, Msg: "info late"},
		{Pass: "p", Sev: SevWarn, Fn: f, Block: b1, InstrIdx: 2, Msg: "warn b1"},
		{Pass: "p", Sev: SevWarn, Fn: f, Block: b0, InstrIdx: 1, Msg: "warn b0i1"},
		{Pass: "p", Sev: SevWarn, Fn: f, Block: b0, InstrIdx: 0, Msg: "warn b0i0"},
		{Pass: "p", Sev: SevError, Msg: "module-level error"},
	}}
	rep.Sort()
	var got []string
	for _, fd := range rep.Findings {
		got = append(got, fd.Msg)
	}
	want := []string{"module-level error", "warn b0i0", "warn b0i1", "warn b1", "info late"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order %v, want %v", got, want)
		}
	}
	// Errors sort before warnings before infos regardless of location:
	// the module-level error has no Fn at all yet still leads.
	if rep.Findings[0].Sev != SevError || rep.Findings[len(rep.Findings)-1].Sev != SevInfo {
		t.Fatalf("severity not leading after sort: %v", got)
	}
}

func TestSortIsStableWithinTies(t *testing.T) {
	f := diagFixture(t)
	b0 := f.Blocks[0]
	rep := &Report{Findings: []Finding{
		{Pass: "a", Sev: SevWarn, Fn: f, Block: b0, InstrIdx: 0, Msg: "first"},
		{Pass: "b", Sev: SevWarn, Fn: f, Block: b0, InstrIdx: 0, Msg: "second"},
	}}
	rep.Sort()
	if rep.Findings[0].Msg != "first" || rep.Findings[1].Msg != "second" {
		t.Fatalf("tie broke insertion order: %q then %q", rep.Findings[0].Msg, rep.Findings[1].Msg)
	}
}

func TestFindingRefAndString(t *testing.T) {
	f := diagFixture(t)
	b0 := f.Blocks[0]
	cases := []struct {
		name string
		f    Finding
		ref  string
	}{
		{"module-level", Finding{Pass: "validate", Sev: SevError, Msg: "m"}, "module"},
		{"function-level", Finding{Pass: "p", Sev: SevWarn, Fn: f, InstrIdx: -1, Msg: "m"}, "f"},
		{"block-level", Finding{Pass: "p", Sev: SevWarn, Fn: f, Block: b0, InstrIdx: -1, Msg: "m"}, "f/" + b0.Name},
		{"instr-level", Finding{Pass: "p", Sev: SevWarn, Fn: f, Block: b0, InstrIdx: 0, Msg: "m"}, "f/" + b0.Name + "/0"},
	}
	for _, tc := range cases {
		if got := tc.f.Ref(); got != tc.ref {
			t.Errorf("%s: Ref() = %q, want %q", tc.name, got, tc.ref)
		}
		s := tc.f.String()
		wantPrefix := tc.f.Sev.String() + " " + tc.f.Pass + " " + tc.ref + ": m"
		if !strings.HasPrefix(s, wantPrefix) {
			t.Errorf("%s: String() = %q, want prefix %q", tc.name, s, wantPrefix)
		}
	}
	// Instruction-anchored findings append the disassembly in brackets;
	// coarser anchors must not.
	withInstr := cases[3].f.String()
	if !strings.Contains(withInstr, "  [") || !strings.HasSuffix(withInstr, "]") {
		t.Errorf("instr-level String() missing disassembly suffix: %q", withInstr)
	}
	if s := cases[2].f.String(); strings.Contains(s, "[") {
		t.Errorf("block-level String() leaked a disassembly suffix: %q", s)
	}
	// Out-of-range indices degrade gracefully instead of panicking.
	oob := Finding{Pass: "p", Sev: SevWarn, Fn: f, Block: b0, InstrIdx: len(b0.Instrs) + 3, Msg: "m"}
	if s := oob.String(); strings.Contains(s, "[") {
		t.Errorf("out-of-range String() leaked a disassembly suffix: %q", s)
	}
}

func TestSeverityStrings(t *testing.T) {
	if SevError.String() != "error" || SevWarn.String() != "warn" || SevInfo.String() != "info" {
		t.Fatalf("severity labels drifted: %s %s %s", SevError, SevWarn, SevInfo)
	}
	if got := Severity(42).String(); got != "sev(42)" {
		t.Fatalf("unknown severity rendered %q", got)
	}
	if !(SevError < SevWarn && SevWarn < SevInfo) {
		t.Fatal("severity ordering inverted: most severe must compare lowest")
	}
}

func TestReportWriteFiltersAndSummarizes(t *testing.T) {
	f := diagFixture(t)
	rep := &Report{Module: "diag", Findings: []Finding{
		{Pass: "p", Sev: SevError, Fn: f, Msg: "boom"},
		{Pass: "p", Sev: SevWarn, Fn: f, Msg: "hmm"},
		{Pass: "p", Sev: SevInfo, Fn: f, Msg: "fyi"},
	}}
	var buf bytes.Buffer
	if err := rep.Write(&buf, SevWarn); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "boom") || !strings.Contains(out, "hmm") {
		t.Fatalf("Write dropped findings at or above minSev:\n%s", out)
	}
	if strings.Contains(out, "fyi") {
		t.Fatalf("Write leaked a below-threshold finding:\n%s", out)
	}
	// The trailer counts ALL findings, including filtered ones, so the
	// summary line is stable across verbosity levels.
	if !strings.HasSuffix(out, "diag: 1 error(s), 1 warning(s), 1 info\n") {
		t.Fatalf("summary trailer drifted:\n%s", out)
	}
	if rep.Count(SevError) != 1 || rep.Count(SevWarn) != 1 || rep.Count(SevInfo) != 1 || !rep.HasErrors() {
		t.Fatalf("counts drifted: %d/%d/%d", rep.Count(SevError), rep.Count(SevWarn), rep.Count(SevInfo))
	}
}
