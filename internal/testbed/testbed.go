// Package testbed reproduces the paper's measurement campaign (§5.1) on
// the simulated DUT: it replays workloads through an NF running on the IR
// interpreter, accounts CPU cycles with the shared cost model, drives
// every load/store through the simulated cache hierarchy (with DDIO
// placement of packet headers), and reports the paper's three metric
// families — end-to-end latency CDFs, maximum throughput at <1% loss, and
// per-packet micro-architectural counters (instructions retired, L3
// misses).
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

// Options configures a measurement.
type Options struct {
	// Geometry of the DUT; zero value means memsim.DefaultGeometry.
	Geometry memsim.Geometry
	// Seed fixes the DUT's hidden hash and page mapping.
	Seed uint64
	// WireNS is the constant TG↔DUT wire/NIC/timestamping latency added
	// to every packet (the NOP floor of the figures). Default 4060 ns.
	WireNS float64
	// OverheadCycles models the DPDK driver/mbuf path per packet.
	// Default 900.
	OverheadCycles uint64
	// MeasureCap bounds the measured packets per experiment (the paper
	// replays for 20 s; we replay the workload in a loop until this many
	// packets are measured). Default 8192.
	MeasureCap int
	// QueueDepth is the DUT RX descriptor ring for throughput search.
	// Default 256.
	QueueDepth int
}

func (o *Options) fill() {
	if o.Geometry.LineBytes == 0 {
		o.Geometry = memsim.DefaultGeometry()
	}
	if o.WireNS == 0 {
		o.WireNS = 4060
	}
	if o.OverheadCycles == 0 {
		o.OverheadCycles = 900
	}
	if o.MeasureCap <= 0 {
		o.MeasureCap = 8192
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
}

// Measurement is the result of one (NF, workload) experiment.
type Measurement struct {
	NF       string
	Workload string
	// Latency is the end-to-end per-packet latency CDF in nanoseconds.
	Latency *stats.CDF
	// Cycles is the per-packet reference-cycles CDF.
	Cycles *stats.CDF
	// Instrs is the per-packet instructions-retired CDF.
	Instrs *stats.CDF
	// L3Misses is the per-packet DRAM-access CDF.
	L3Misses *stats.CDF
	// ThroughputMpps is the maximum offered load with <1% loss.
	ThroughputMpps float64
}

// MedianDeviation returns this measurement's median latency minus the
// baseline's (the paper's Table 5 metric).
func (m *Measurement) MedianDeviation(nop *Measurement) float64 {
	return m.Latency.Median() - nop.Latency.Median()
}

// Measure replays the workload against a fresh instance of the named NF.
func Measure(nfName string, wl *workload.Workload, opt Options) (*Measurement, error) {
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

	// Loads and stores are priced by where the hierarchy serves them;
	// everything else is priced per packet from the machine's own
	// instruction tally (see priceList).
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

	// Warm-up pass: install all flow state and warm the caches, like the
	// start of the paper's 20-second looped replay.
	for _, fr := range wl.Frames {
		if err := runPacket(fr); err != nil {
			return nil, fmt.Errorf("testbed: warmup: %w", err)
		}
	}

	// Measurement pass: loop the workload until MeasureCap packets.
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
		total := memCycles + price.of(inst.Machine.OpCounts()) + opt.OverheadCycles
		latency = append(latency, opt.WireNS+hier.CyclesToNanos(total))
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
		ThroughputMpps: maxThroughput(serviceNS, opt.QueueDepth),
	}, nil
}

// priceList is the cost model laid out the way interp.OpCounts tallies
// instructions, so a packet's CPU cycles are one multiply-add per cost
// class instead of one InstrCost call per instruction. Sums of uint64
// commute, so the total is the one per-instruction accounting gives.
type priceList struct {
	op, bin [len(interp.OpCounts{}.Op)]uint64
}

func newPriceList(cost icfg.CostModel) priceList {
	var p priceList
	for op := ir.OpConst; op <= ir.OpHavoc; op++ {
		switch op {
		case ir.OpLoad, ir.OpStore: // priced by the hierarchy
		case ir.OpBin: // priced by operation below
		default:
			p.op[op] = cost.InstrCost(&ir.Instr{Op: op})
		}
	}
	for bin := ir.Add; bin <= ir.Lshr; bin++ {
		p.bin[bin] = cost.InstrCost(&ir.Instr{Op: ir.OpBin, Bin: bin})
	}
	return p
}

func (p *priceList) of(n *interp.OpCounts) uint64 {
	var cycles uint64
	for i := range p.op {
		cycles += n.Op[i]*p.op[i] + n.Bin[i]*p.bin[i]
	}
	return cycles
}

// maxThroughput finds the highest arrival rate (Mpps) at which a
// single-server queue with the observed service times drops less than 1%
// of packets, via binary search over deterministic arrivals.
func maxThroughput(serviceNS []float64, queueDepth int) float64 {
	// Simulate enough arrivals that a queue buildup cannot hide overload
	// within the window (the paper offers load for 20 seconds).
	arrivals := len(serviceNS)
	if arrivals < 20000 {
		arrivals = 20000
	}
	// finish holds the accepted packets' finish times in arrival order;
	// the FIFO of packets in the system is finish[head:tail].
	finish := make([]float64, arrivals)
	lossAt := func(mpps float64) float64 {
		interval := 1000.0 / mpps // ns between arrivals
		head, tail := 0, 0
		var lastFinish float64
		drops := 0
		next := 0 // i % len(serviceNS)
		for i := 0; i < arrivals; i++ {
			s := serviceNS[next]
			if next++; next == len(serviceNS) {
				next = 0
			}
			t := float64(i) * interval
			// Depart everything that finished by now.
			for head < tail && finish[head] <= t {
				head++
			}
			if tail-head > queueDepth {
				drops++
				continue
			}
			start := t
			if tail > head {
				start = lastFinish
			}
			lastFinish = start + s
			finish[tail] = lastFinish
			tail++
		}
		return float64(drops) / float64(arrivals)
	}
	lo, hi := 0.05, 40.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if lossAt(mid) < 0.01 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MeasureNOP measures the baseline forwarder under the 1 Packet workload
// (its behaviour is workload-independent).
func MeasureNOP(opt Options) (*Measurement, error) {
	return Measure("nop", workload.OnePacket(workload.ProfileLPM), opt)
}
