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
	"runtime/debug"

	"castan/internal/icfg"
	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/parallel"
	"castan/internal/stats"
	"castan/internal/workload"
)

// Options configures a measurement.
type Options struct {
	// Geometry of the DUT; zero value means memsim.DefaultGeometry.
	Geometry memsim.Geometry
	// Seed fixes the DUT's hidden hash and page mapping.
	Seed uint64
	// MeasureCap bounds the measured packets per experiment (the paper
	// replays for 20 s; we replay the workload in a loop until this many
	// packets are measured). Default 8192.
	MeasureCap int
}

// The modelled testbed's fixed costs.
const (
	// wireNS is the constant TG↔DUT wire/NIC/timestamping latency added
	// to every packet (the NOP floor of the figures).
	wireNS = 4060
	// overheadCycles models the DPDK driver/mbuf path per packet.
	overheadCycles = 900
	// queueDepth is the DUT RX descriptor ring for throughput search.
	queueDepth = 256
)

func (o *Options) fill() {
	if o.Geometry.LineBytes == 0 {
		o.Geometry = memsim.DefaultGeometry()
	}
	if o.MeasureCap <= 0 {
		o.MeasureCap = 8192
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

// Measure replays the workload against a fresh instance of the named NF:
// a warm-up pass over every frame installs flow state and warms the
// caches, like the start of the paper's 20-second looped replay, then
// the workload is looped until MeasureCap packets are measured.
//
// The replay is a two-stage pipeline. The calling goroutine runs the
// interpreter and prices each measured packet's instructions from the
// machine's own tally (see priceList); its OnMem hook only records the
// packet's loads and stores. A simulator goroutine that owns the
// hierarchy replays those records in packet order and prices them by
// where the hierarchy serves them (see simulator). The interpreter never
// reads the hierarchy, so the hierarchy sees exactly the calls a single
// loop would make, in the same order, and every cycle is the same.
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

	// Per measured packet: instruction cycles and count from this
	// goroutine, memory cycles and DRAM misses from the simulator's.
	warm, n := len(wl.Frames), opt.MeasureCap
	cpu := make([]uint64, n)
	ins := make([]float64, n)
	mem := make([]uint64, n)
	mis := make([]float64, n)

	sim := startSimulator(hier, warm, mem, mis)
	c := sim.next(0)
	inst.Machine.Hooks = interp.Hooks{
		OnMem: func(a interp.MemAccess) { c.acc = append(c.acc, a) },
	}
	for p := 0; p < warm+n && c != nil; p++ {
		fr := wl.Frames[p%warm]
		if err = runPacket(inst.Machine, fr, p); err != nil {
			if p < warm {
				err = fmt.Errorf("testbed: warmup: %w", err)
			} else {
				err = fmt.Errorf("testbed: measure: %w", err)
			}
			c = nil // the failed packet's accesses are never replayed
			break
		}
		c.length = append(c.length, len(fr))
		c.end = append(c.end, len(c.acc))
		if i := p - warm; i >= 0 {
			cpu[i] = price.of(inst.Machine.OpCounts())
			ins[i] = float64(inst.Machine.Steps())
		}
		if len(c.length) == chunkPackets {
			c = sim.handOff(c, p+1)
		}
	}
	inst.Machine.Hooks = interp.Hooks{}
	sim.stop(c)
	if err != nil {
		return nil, err
	}

	latency := make([]float64, n)
	cyc := make([]float64, n)
	serviceNS := make([]float64, n)
	for i := range n {
		total := mem[i] + cpu[i] + overheadCycles
		latency[i] = wireNS + hier.CyclesToNanos(total)
		cyc[i] = float64(total)
		serviceNS[i] = hier.CyclesToNanos(total)
	}

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

// runPacket runs nf_process on frame, packet p of the run (warm-up
// packets count from 0).
func runPacket(m *interp.Machine, frame []byte, p int) error {
	if interpFault != nil {
		if err := interpFault(p); err != nil {
			return err
		}
	}
	m.Mem.WriteBytes(ir.PacketBase, frame)
	_, err := m.Call("nf_process", ir.PacketBase, uint64(len(frame)))
	return err
}

// Test seams for the pipeline's failure paths; nil outside tests.
// interpFault fails packet p of the run as an interpreter error would;
// simFault runs on the simulator goroutine before it replays packet p.
var (
	interpFault func(p int) error
	simFault    func(p int)
)

// The interpreter hands the simulator chunkPackets packets at a time
// from a ring of chunksInFlight reused chunks: it fills one while the
// simulator replays the others, and waits when it is a whole ring ahead.
// Chunks keep their buffers, so after the first lap the pipeline
// allocates nothing.
const (
	chunkPackets   = 128
	chunksInFlight = 4
)

// chunk is one hand-off: the loads and stores of consecutive packets in
// the order the interpreter made them.
type chunk struct {
	first  int   // the run index of the chunk's first packet
	length []int // frame length, per packet
	end    []int // end of the packet's accesses in acc, per packet
	acc    []interp.MemAccess
}

// simulator is Measure's second stage: the goroutine that owns the
// hierarchy.
type simulator struct {
	// Both buffers hold the whole ring, so no send ever waits.
	free, full chan *chunk
	done       chan struct{}
	// panicked is written before done is closed and read after.
	panicked *parallel.Panic
}

// startSimulator starts the simulator. It writes measured packet i's
// memory cycles and DRAM misses to mem[i] and mis[i]; the first warm
// packets of the run are warm-up, replayed but not recorded.
func startSimulator(hier *memsim.Hierarchy, warm int, mem []uint64, mis []float64) *simulator {
	s := &simulator{
		free: make(chan *chunk, chunksInFlight),
		full: make(chan *chunk, chunksInFlight),
		done: make(chan struct{}),
	}
	for range chunksInFlight {
		s.free <- &chunk{length: make([]int, 0, chunkPackets), end: make([]int, 0, chunkPackets)}
	}
	go s.run(hier, warm, mem, mis)
	return s
}

func (s *simulator) run(hier *memsim.Hierarchy, warm int, mem []uint64, mis []float64) {
	defer close(s.done)
	p := 0
	defer func() {
		if v := recover(); v != nil {
			s.panicked = &parallel.Panic{Index: p, Value: v, Stack: debug.Stack()}
		}
	}()
	for c := range s.full {
		start := 0
		for k, length := range c.length {
			p = c.first + k
			if simFault != nil {
				simFault(p)
			}
			hier.InjectPacket(ir.PacketBase, length)
			var cycles, misses uint64
			for _, a := range c.acc[start:c.end[k]] {
				lvl, cyc := hier.Access(a.Addr, a.Size, a.IsWrite)
				cycles += cyc
				if lvl == memsim.DRAM {
					misses++
				}
			}
			start = c.end[k]
			if i := p - warm; i >= 0 {
				mem[i], mis[i] = cycles, float64(misses)
			}
		}
		s.free <- c
	}
}

// next returns an empty chunk whose first packet is run packet first,
// or nil if the simulator has stopped (it panicked; stop re-raises).
func (s *simulator) next(first int) *chunk {
	select {
	case c := <-s.free:
		c.first = first
		c.length, c.end, c.acc = c.length[:0], c.end[:0], c.acc[:0]
		return c
	case <-s.done:
		return nil
	}
}

// handOff queues the filled chunk c for the simulator and returns the
// next one, as next does.
func (s *simulator) handOff(c *chunk, first int) *chunk {
	s.full <- c
	return s.next(first)
}

// stop queues the last chunk c, if it holds packets, waits until the
// simulator has replayed everything queued, and re-raises a simulator
// panic on the caller's goroutine, where callers such as parallel.MapErr
// can contain it.
func (s *simulator) stop(c *chunk) {
	if c != nil && len(c.length) > 0 {
		s.full <- c
	}
	close(s.full)
	<-s.done
	if s.panicked != nil {
		panic(s.panicked)
	}
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
