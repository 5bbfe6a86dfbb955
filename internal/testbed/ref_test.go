package testbed

import (
	"fmt"

	"castan/internal/icfg"
	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/stats"
	"castan/internal/workload"
)

// refMeasure is Measure as it was before the replay became a two-stage
// pipeline: one loop on one goroutine, the OnMem hook driving the
// hierarchy directly and pricing each access as the interpreter makes
// it. It is kept test-only as the oracle TestMeasureMatchesReference
// holds Measure to: every CDF sample and the throughput.
func refMeasure(nfName string, wl *workload.Workload, opt Options) (*Measurement, error) {
	opt.fill()
	if len(wl.Frames) == 0 {
		return nil, fmt.Errorf("testbed: workload %s empty", wl.Name)
	}
	inst, err := nf.New(nfName)
	if err != nil {
		return nil, err
	}
	hier := memsim.New(opt.Geometry, opt.Seed)
	price := newPriceList(icfg.DefaultCostModel())

	var memCycles, misses uint64
	inst.Machine.Hooks = interp.Hooks{
		OnMem: func(a interp.MemAccess) {
			lvl, cyc := hier.Access(a.Addr, a.Size, a.IsWrite)
			memCycles += cyc
			if lvl == memsim.DRAM {
				misses++
			}
		},
	}

	runPacket := func(frame []byte) error {
		hier.InjectPacket(ir.PacketBase, len(frame))
		inst.Machine.Mem.WriteBytes(ir.PacketBase, frame)
		_, err := inst.Machine.Call("nf_process", ir.PacketBase, uint64(len(frame)))
		return err
	}

	for _, fr := range wl.Frames {
		if err := runPacket(fr); err != nil {
			return nil, fmt.Errorf("testbed: warmup: %w", err)
		}
	}

	n := opt.MeasureCap
	latency := make([]float64, 0, n)
	cyc := make([]float64, 0, n)
	ins := make([]float64, 0, n)
	mis := make([]float64, 0, n)
	serviceNS := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		fr := wl.Frames[i%len(wl.Frames)]
		memCycles, misses = 0, 0
		if err := runPacket(fr); err != nil {
			return nil, fmt.Errorf("testbed: measure: %w", err)
		}
		total := memCycles + price.of(inst.Machine.OpCounts()) + overheadCycles
		latency = append(latency, wireNS+hier.CyclesToNanos(total))
		cyc = append(cyc, float64(total))
		ins = append(ins, float64(inst.Machine.Steps()))
		mis = append(mis, float64(misses))
		serviceNS = append(serviceNS, hier.CyclesToNanos(total))
	}
	inst.Machine.Hooks = interp.Hooks{}

	return &Measurement{
		NF:             nfName,
		Workload:       wl.Name,
		Latency:        stats.NewCDF(latency),
		Cycles:         stats.NewCDF(cyc),
		Instrs:         stats.NewCDF(ins),
		L3Misses:       stats.NewCDF(mis),
		ThroughputMpps: maxThroughput(serviceNS, queueDepth),
	}, nil
}
