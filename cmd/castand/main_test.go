package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDispatch: -h exits 0 and a bad flag exits 2 for the daemon and for
// load, and a mistyped subcommand exits 2 as an unknown subcommand
// instead of being parsed as daemon flags.
func TestDispatch(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"load", "-h"}, 0},
		{[]string{"load", "-no-such-flag"}, 2},
		{[]string{"lod", "-h"}, 2},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.want {
			t.Errorf("castand %s: exit %d, want %d; stderr: %s", strings.Join(tc.args, " "), code, tc.want, errb.String())
		}
	}
	var out, errb bytes.Buffer
	run([]string{"lod"}, &out, &errb)
	if msg := errb.String(); !strings.Contains(msg, "unknown subcommand") || !strings.Contains(msg, "load") {
		t.Errorf("castand lod: stderr %q should report an unknown subcommand and list load", msg)
	}
}
