package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDispatch pins the exit codes of the subcommand table: for the
// analysis and every subcommand, -h exits 0 and a bad flag exits 2, and
// a mistyped subcommand name exits 2 as an unknown subcommand instead of
// being parsed as the analysis's arguments.
func TestDispatch(t *testing.T) {
	prefixes := [][]string{nil, {"tracediff", "check"}}
	for name := range commands {
		prefixes = append(prefixes, []string{name})
	}
	for _, prefix := range prefixes {
		for _, tc := range []struct {
			arg  string
			want int
		}{{"-h", 0}, {"-no-such-flag", 2}} {
			args := append(append([]string{}, prefix...), tc.arg)
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != tc.want {
				t.Errorf("castan %s: exit %d, want %d; stderr: %s", strings.Join(args, " "), code, tc.want, errb.String())
			}
		}
	}
	for name := range commands {
		typo := name[:len(name)-1]
		var out, errb bytes.Buffer
		if code := run([]string{typo, "-h"}, &out, &errb); code != 2 {
			t.Errorf("castan %s: exit %d, want 2", typo, code)
		}
		if msg := errb.String(); !strings.Contains(msg, "unknown subcommand") || !strings.Contains(msg, name) {
			t.Errorf("castan %s: stderr %q should report an unknown subcommand and list %s", typo, msg, name)
		}
	}
}

// TestDegradedRunFlushesCPUProfile: a budget-cut analysis exits 3, and
// the -cpuprofile it asked for is still written out (a gzip-compressed
// pprof profile), not left empty by the non-zero exit.
func TestDegradedRunFlushesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.out")
	var out, errb bytes.Buffer
	code := run([]string{"-nf", "lpm-trie", "-packets", "4", "-states", "2000", "-budget", "2000",
		"-cpuprofile", prof, "-out", filepath.Join(dir, "lpm-trie.pcap")}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit %d, want 3 (degraded); stdout:\n%s\nstderr: %s", code, out.String(), errb.String())
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("cpu profile is %d bytes and does not start with the gzip magic", len(data))
	}
}

// TestValidateToleratesUnreconciledSites: -validate fails a run only when
// the run is clean and every hash site reconciled. Under -no-rainbow no
// site reconciles, so the replay walks shorter chains than the predicted
// path (492 vs 672 instructions on lb-chain at 6 packets); the analysis
// still exits 0 and prints both counts.
func TestValidateToleratesUnreconciledSites(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-nf", "lb-chain", "-packets", "6", "-states", "4000", "-no-rainbow",
		"-out", filepath.Join(dir, "lb-chain.pcap")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stdout:\n%s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "validation replay executed") {
		t.Errorf("stdout does not report the validation replay:\n%s", out.String())
	}
}

// TestLPMTrieAtDefaults: the plain documented invocation works. With no
// -packets and no -states, lpm-trie runs its 30 paper packets at
// castan.Config's own default budget, which reaches them.
func TestLPMTrieAtDefaults(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if code := run([]string{"-nf", "lpm-trie", "-out", filepath.Join(dir, "lpm-trie.pcap")}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stdout:\n%s\nstderr: %s", code, out.String(), errb.String())
	}
}
