package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"castan/internal/analysis"
	"castan/internal/analysis/cachecost"
	"castan/internal/analysis/taint"
	"castan/internal/analysis/vrange"
	"castan/internal/cachemodel"
	"castan/internal/expr"
	"castan/internal/icfg"
	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/nfhash"
	"castan/internal/obs"
	"castan/internal/rainbow"
	"castan/internal/service"
	"castan/internal/solver"
	"castan/internal/stats"
	"castan/internal/store"
	"castan/internal/symbex"
	"castan/internal/testbed"
	"castan/internal/workload"
)

// driveLayers calls one layer's public functions at a time, on inputs
// taken from the workloads' NFs, and returns per-layer metrics. The
// drives run in the harness process after the passes; they are sized to
// finish in a few seconds together, so their numbers are for telling
// which layer moved, not for resolving small changes.
func driveLayers(h *harness, seed uint64) (map[string]float64, []string) {
	out := map[string]float64{}
	var problems []string
	for _, drive := range []func(*harness, uint64, map[string]float64) error{
		driveRainbowAndStore, driveSymbexAndSolver, driveExpr, driveMemsim,
		driveCachemodel, driveInterpAndTestbed, driveNF, driveService, driveObs,
	} {
		if err := drive(h, seed, out); err != nil {
			problems = append(problems, "layer drive: "+err.Error())
		}
	}
	return out, problems
}

// perOp runs fn n times and returns the mean nanoseconds per call.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// driveRainbowAndStore builds a table over lb-ring's hash and key space
// with the sizing castan.Analyze uses (DefaultConfig x coverage 8) at a
// 16-bit width — 2 M chain links, a thirtieth of nat-ring's table — then
// times the read side and moves the serialized table through a store.
func driveRainbowAndStore(h *harness, seed uint64, out map[string]float64) error {
	inst, err := nf.New("lb-ring")
	if err != nil {
		return err
	}
	hu := inst.Hashes[0]
	const bits = 16
	cfg := rainbow.DefaultConfig(bits)
	cfg.Chains *= 8
	build := func(workers int) (*rainbow.Table, time.Duration, error) {
		cfg.Workers = workers
		start := time.Now()
		t, err := rainbow.Build(hu.Fn, hu.Space, cfg)
		return t, time.Since(start), err
	}
	tbl, par, err := build(procs)
	if err != nil {
		return err
	}
	_, seq, err := build(1)
	if err != nil {
		return err
	}
	out["rainbow.build_ns_per_link"] = float64(par.Nanoseconds()) / float64(tbl.Chains()*tbl.ChainLen())
	out["parallel.speedup_w2"] = seq.Seconds() / par.Seconds()

	masked := nfhash.Masked(hu.Fn, bits)
	rng := stats.NewRNG(seed)
	const lookups = 200
	found := 0
	start := time.Now()
	for i := 0; i < lookups; i++ {
		if len(tbl.Invert(masked(hu.Space.FromSeed(rng.Uint64())), 16)) > 0 {
			found++
		}
	}
	out["rainbow.invert_us"] = float64(time.Since(start).Microseconds()) / lookups
	out["rainbow.invert_hit_ratio"] = float64(found) / lookups

	start = time.Now()
	data, err := tbl.Serialize()
	if err != nil {
		return err
	}
	out["rainbow.serialize_ms"] = ms(time.Since(start))
	start = time.Now()
	loaded, err := rainbow.LoadTable(data, hu.Fn, hu.Space)
	if err != nil {
		return err
	}
	out["rainbow.load_ms"] = ms(time.Since(start))
	start = time.Now()
	if err := loaded.SelfCheck(4); err != nil {
		return err
	}
	out["rainbow.selfcheck_ms"] = ms(time.Since(start))

	key := make([]byte, nfhash.FlowKeyLen)
	out["nfhash.ring_ns"] = perOp(200000, func() { key[0]++; sink = nfhash.RingHash(key) })
	out["nfhash.table_ns"] = perOp(200000, func() { key[0]++; sink = nfhash.TableHash(key) })

	dir, err := h.dir("drive-store")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i := 0; i < 5; i++ {
		start = time.Now()
		if err := st.Put(store.KindRainbow, store.Key("drive", fmt.Sprint(i)), data); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(start)))
		start = time.Now()
		if _, ok := st.Get(store.KindRainbow, store.Key("drive", fmt.Sprint(i))); !ok {
			return errors.New("store lost the table it was just given")
		}
		gets = append(gets, ms(time.Since(start)))
	}
	out["store.put_ms_table"], out["store.get_ms_table"] = median(puts), median(gets)
	small := store.Key("drive", "small")
	if err := st.Put(store.KindModel, small, []byte(`{"drive":true}`)); err != nil {
		return err
	}
	out["store.get_us_small"] = perOp(500, func() { sink, _ = st.Get(store.KindModel, small) }) / 1e3
	out["store.do_hit_us"] = perOp(500, func() {
		sink, _, _ = st.Do(store.KindModel, small, func() ([]byte, error) { return nil, errors.New("unreachable") })
	}) / 1e3
	return nil
}

// exploration is one Engine.Run assembled the way castan.Analyze
// assembles it (minus the cache model, which tree NFs do not have).
type exploration struct {
	wall time.Duration
	pops int
	// done holds the path constraints of every completed state.
	done [][]*expr.Expr
}

func explore(name string) (*exploration, error) {
	inst, err := nf.New(name)
	if err != nil {
		return nil, err
	}
	mf := analysis.ForModule(inst.Mod)
	mr := analysis.RunMemRegions(mf, analysis.NFEntryHints())
	geo := memsim.DefaultGeometry()
	an, err := icfg.Analyze(inst.Mod, 2, icfg.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	potential, err := icfg.Analyze(inst.Mod, analysisPkts+2, icfg.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	x := &exploration{}
	eng := &symbex.Engine{
		Mod: inst.Mod, Analysis: an, PotentialAnalysis: potential,
		StaticCost: cachecost.Run(mf, mr, cachecost.Config{
			Geometry: cachecost.Geometry{Ways: geo.L3Assoc(), LineBytes: geo.LineBytes},
		}),
		Base: inst.Machine.Mem, HeapTop: ir.HeapBase + inst.Machine.HeapUsed(),
		Cfg: symbex.Config{
			Entry: "nf_process", NPackets: analysisPkts, PacketLen: nf.SymbolicPacketLen,
			MaxStates: analysisState, MaxLoopIters: 96,
		},
		Taint:  taint.Run(mf, mr, taint.Config{EntryHints: taint.NFEntryTaints()}),
		VRange: vrange.Run(mf, vrange.Config{EntryHints: vrange.NFEntryRanges()}),
		Memo:   solver.NewMemo(expr.VarID(analysisPkts*nf.SymbolicPacketLen), nil),
		Trace: func(event string, s *symbex.State) {
			switch event {
			case "pop":
				x.pops++
			case "done":
				x.done = append(x.done, append([]*expr.Expr(nil), s.Constraints()...))
			}
		},
	}
	start := time.Now()
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	x.wall = time.Since(start)
	if len(x.done) == 0 {
		return nil, fmt.Errorf("%s: exploration completed no state", name)
	}
	return x, nil
}

// checkMicros is the mean time of a from-scratch solver.Check over the
// captured path-constraint sets.
func checkMicros(sets [][]*expr.Expr) float64 {
	const rounds = 5
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, cons := range sets {
			sol := solver.Solver{MaxSteps: 30000}
			sink, _ = sol.Check(cons)
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(rounds*len(sets))
}

func driveSymbexAndSolver(_ *harness, _ uint64, out map[string]float64) error {
	tree, err := explore("lb-rbtree")
	if err != nil {
		return err
	}
	out["symbex.run_ms_tree"] = ms(tree.wall)
	out["symbex.pops_per_s"] = float64(tree.pops) / tree.wall.Seconds()
	out["solver.check_us_tree"] = checkMicros(tree.done)
	ring, err := explore("lb-ring")
	if err != nil {
		return err
	}
	out["solver.check_us_ring"] = checkMicros(ring.done)
	return nil
}

// driveExpr times node construction, folding included: a byte-extract /
// compare shape like the ones symbex builds per instruction.
func driveExpr(_ *harness, _ uint64, out map[string]float64) error {
	const n = 200000
	const newsPerIter = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	i := uint64(0)
	ns := perOp(n, func() {
		i++
		e := expr.Add(expr.Var(expr.VarID(i%64)), expr.Const(i))
		e = expr.And(e, expr.Const(0xff))
		sink = expr.Eq(e, expr.Const(i&0xff))
	})
	runtime.ReadMemStats(&after)
	out["expr.new_ns"] = ns / newsPerIter
	out["expr.new_allocs"] = float64(after.Mallocs-before.Mallocs) / (n * newsPerIter)
	return nil
}

// driveMemsim uses the one memsim layer both ways the workloads do: the
// hierarchy walk (Access; replay) on an L1-resident and a DRAM-thrashing
// stream, and the probe path (ProbeBatch; discovery).
func driveMemsim(_ *harness, seed uint64, out map[string]float64) error {
	hier := memsim.New(memsim.DefaultGeometry(), seed)
	line := uint64(hier.Geometry().LineBytes)
	const base = 0x10000000
	i := uint64(0)
	out["memsim.access_hit_ns"] = perOp(500000, func() { i++; hier.Access(base+(i%8)*line, 8, false) })
	i = 0
	// A fresh line every access over 512 MiB: nothing is ever resident.
	out["memsim.access_miss_ns"] = perOp(200000, func() { i++; hier.Access(base+(i*line*67)%(512<<20), 8, false) })

	sets := make([][]uint64, 64)
	for s := range sets {
		for a := 0; a < 32; a++ {
			sets[s] = append(sets[s], base+uint64(s*32+a)*line*8)
		}
	}
	const batches = 40
	perBatch := perOp(batches, func() { sink = hier.ProbeBatch(sets, 1) })
	out["memsim.probe_ns_per_line"] = perBatch / float64(len(sets)*32*2) // warm-up round + one timed round
	return nil
}

// driveCachemodel runs discovery on a pool built like cmd/contention's
// (stride-8 lines, 2600 at most) over the NF's first attack region.
func driveCachemodel(_ *harness, seed uint64, out map[string]float64) error {
	var model *cachemodel.Model
	for _, c := range []struct{ metric, nf string }{
		{"cachemodel.discover_ms_dl1", "lpm-dl1"}, {"cachemodel.discover_ms_ring", "lb-ring"},
	} {
		inst, err := nf.New(c.nf)
		if err != nil {
			return err
		}
		hier := memsim.New(memsim.DefaultGeometry(), seed)
		geo := hier.Geometry()
		region := inst.AttackRegions[0]
		var pool []uint64
		for a := region.Addr; a < region.Addr+region.Size && len(pool) < 2600; a += uint64(8 * geo.LineBytes) {
			pool = append(pool, a)
		}
		start := time.Now()
		m, err := cachemodel.Discover(hier, cachemodel.DiscoverConfig{
			Pool: pool, Assoc: geo.L3Assoc(), LineBytes: geo.LineBytes, LatL3: geo.LatL3, LatDRAM: geo.LatDRAM,
			MaxSets: 6, Seed: seed, Workers: procs, Fork: func() cachemodel.Prober { return hier.Fork() },
		})
		out[c.metric] = ms(time.Since(start))
		if err != nil && !errors.Is(err, cachemodel.ErrNoSets) {
			return fmt.Errorf("%s: %w", c.nf, err)
		}
		if m != nil {
			model = m
		}
	}
	if model == nil {
		return errors.New("discovery found no model to time loading on")
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return err
	}
	out["cachemodel.load_ms"] = perOp(20, func() { sink, _ = cachemodel.Load(bytes.NewReader(buf.Bytes())) }) / 1e6
	return nil
}

// driveInterpAndTestbed times the bare interpreter (no hooks) and one
// testbed.Measure per NF class; the digest of the three measurements'
// simulated medians must not move when only host speed is optimised.
func driveInterpAndTestbed(_ *harness, seed uint64, out map[string]float64) error {
	frames := workload.UniRand(workload.ProfileFor("lb-chain"), 2048, seed).Frames
	counted, err := nf.New("lb-chain")
	if err != nil {
		return err
	}
	var instrs int
	counted.Machine.Hooks = interp.Hooks{OnInstr: func(*ir.Func, *ir.Instr) { instrs++ }}
	bare, err := nf.New("lb-chain")
	if err != nil {
		return err
	}
	for _, fr := range frames {
		if _, err := counted.Process(fr); err != nil {
			return err
		}
	}
	start := time.Now()
	for _, fr := range frames {
		if _, err := bare.Process(fr); err != nil {
			return err
		}
	}
	out["interp.ns_per_instr"] = float64(time.Since(start).Nanoseconds()) / float64(instrs)

	var sims []replayMeasurement
	for _, c := range []struct{ metric, nf string }{
		{"testbed.kpps_lpm", "lpm-dl1"}, {"testbed.kpps_tree", "lb-rbtree"}, {"testbed.kpps_hash", "lb-chain"},
	} {
		wl := workload.UniRand(workload.ProfileFor(c.nf), 4096, seed)
		start := time.Now()
		m, err := testbed.Measure(c.nf, wl, testbed.Options{Seed: seed, MeasureCap: 2048})
		if err != nil {
			return err
		}
		out[c.metric] = float64(len(wl.Frames)+2048) / 1e3 / time.Since(start).Seconds()
		sims = append(sims, replayMeasurement{
			NF: c.nf, Workload: wl.Name, LatencyNS: m.Latency.Median(), Cycles: m.Cycles.Median(),
			Instrs: m.Instrs.Median(), L3Misses: m.L3Misses.Median(), Mpps: m.ThroughputMpps,
		})
	}
	out["testbed.sim_digest"] = simDigest(sims)
	return nil
}

// driveNF times IR build plus table population: the floor under every
// child analysis.
func driveNF(_ *harness, _ uint64, out map[string]float64) error {
	for _, name := range nf.Names {
		start := time.Now()
		if _, err := nf.New(name); err != nil {
			return err
		}
		out["nf.new_ms_max"] = max(out["nf.new_ms_max"], ms(time.Since(start)))
	}
	return nil
}

// driveService measures the service's own overhead on the cheapest
// request there is (nop): in process, over HTTP, and answered from the
// report cache.
func driveService(h *harness, seed uint64, out map[string]float64) error {
	dir, err := h.dir("drive-service")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	srv := service.New(service.Config{Workers: 1, Store: st})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := service.Request{NF: "nop", Packets: mixPackets, MaxStates: mixStates, Seed: seed}
	var failure error
	do := func(req service.Request) func() {
		return func() {
			if resp := srv.Do(context.Background(), req, nil); resp.Status != 200 {
				failure = fmt.Errorf("service drive: status %d: %s", resp.Status, resp.Err)
			}
		}
	}
	const n = 200
	out["service.do_nop_us"] = perOp(n, do(req)) / 1e3
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out["service.http_nop_us"] = perOp(n, func() {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			failure = err
			return
		}
		if resp.StatusCode != 200 {
			failure = fmt.Errorf("service drive: HTTP status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}) / 1e3
	req.Key = "drive-key"
	do(req)() // fill the report cache
	out["service.cache_hit_us"] = perOp(n, do(req)) / 1e3
	return failure
}

func driveObs(_ *harness, _ uint64, out map[string]float64) error {
	rec := obs.New(nil)
	c := rec.Counter("bench.drive")
	out["obs.counter_add_ns"] = perOp(1000000, func() { c.Add(1) })
	out["obs.span_ns"] = perOp(50000, func() { rec.Span("bench.drive").End() })
	return nil
}
