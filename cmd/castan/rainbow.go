// castan rainbow builds a rainbow table for one of the NF hash functions
// over a tailored key space and reports its inversion coverage — the
// §3.5 preprocessing step.

package main

import (
	"fmt"
	"io"
	"time"

	"castan/internal/nf"
	"castan/internal/nfhash"
	"castan/internal/rainbow"
)

func rainbowCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan rainbow", stderr)
	var (
		hashName = fs.String("hash", "table", "hash family: table or ring")
		bits     = fs.Int("bits", 12, "hash output width in bits")
		coverage = fs.Int("coverage", 8, "table size multiplier over 2^bits")
		dstIP    = fs.Uint64("dst", uint64(nf.LBVIP), "pinned destination IP of the tailored key space")
		dstPort  = fs.Uint("dport", 80, "pinned destination port")
		samples  = fs.Int("samples", 400, "values sampled for the coverage estimate")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	var fn func([]byte) uint64
	switch *hashName {
	case "table":
		fn = nfhash.TableHash
	case "ring":
		fn = nfhash.RingHash
	default:
		fmt.Fprintln(stderr, "rainbow: unknown hash", *hashName)
		return 2
	}
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: uint32(*dstIP), DstPort: uint16(*dstPort)}
	cfg := rainbow.DefaultConfig(*bits)
	cfg.Chains *= *coverage

	start := time.Now()
	tbl, err := rainbow.Build(fn, space, cfg)
	if err != nil {
		return fail(stderr, "rainbow", err)
	}
	build := time.Since(start)
	start = time.Now()
	cov := tbl.Coverage(*samples, 99)
	fmt.Fprintf(stdout, "%s hash, %d bits: %d chains × %d built in %s\n",
		*hashName, *bits, tbl.Chains(), cfg.ChainLen, build.Round(time.Millisecond))
	fmt.Fprintf(stdout, "inversion coverage: %.1f%% (%d samples, %s)\n",
		cov*100, *samples, time.Since(start).Round(time.Millisecond))
	return 0
}
