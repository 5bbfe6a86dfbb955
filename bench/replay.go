package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"castan/internal/nf"
	"castan/internal/workload"
)

// Replay traffic: the sizes the paper's figures are regenerated at.
const (
	replayPackets  = 16384
	replayUniverse = 1024
)

// replayInstance is the replay workload set up: workload files on disk
// and the job list a pass hands to its child.
type replayInstance struct {
	h       *harness
	seed    uint64
	jobFile string
	jobs    int
	// first is the first pass's simulated results; every later pass must
	// reproduce them exactly, since only host speed may vary.
	first []replayMeasurement
}

// replaySetup generates, per traffic profile, one uniform-random and one
// Zipfian workload from the seed, and writes them where the child reads
// them.
func replaySetup(h *harness, seed uint64) (instance, error) {
	dir, err := h.dir("replay")
	if err != nil {
		return nil, err
	}
	files := map[string]bool{}
	var jobs []replayJob
	for _, name := range nf.Names {
		prof := workload.ProfileFor(name)
		for _, kind := range []string{"UniRand", "Zipfian"} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.pcap", prof, kind))
			if !files[path] {
				wl := workload.UniRand(prof, replayPackets, seed)
				if kind == "Zipfian" {
					if wl, err = workload.Zipfian(prof, replayPackets, replayUniverse, seed); err != nil {
						return nil, err
					}
				}
				if err := wl.Save(path); err != nil {
					return nil, err
				}
				files[path] = true
			}
			jobs = append(jobs, replayJob{NF: name, Name: kind, PCAP: path})
		}
	}
	data, err := json.Marshal(jobs)
	if err != nil {
		return nil, err
	}
	r := &replayInstance{h: h, seed: seed, jobFile: filepath.Join(dir, "jobs.json"), jobs: len(jobs)}
	return r, os.WriteFile(r.jobFile, data, 0o644)
}

func (r *replayInstance) pass(tr *tracer, n int) passOutcome {
	out := passOutcome{attempted: r.jobs}
	fail := func(err error) passOutcome {
		out.failed = r.jobs
		out.problems = append(out.problems, err.Error())
		return out
	}
	args := []string{"replay", "-jobs", r.jobFile, "-seed", fmt.Sprint(r.seed)}
	if tr != nil {
		args = append(args, "-traced")
	}
	run := fmt.Sprintf("pass%d", n)
	var res replayResult
	sp := tr.begin(run, "child", 0)
	wall, err := spawn(r.h.self, &res, args...)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	if len(res.Measurements) != r.jobs {
		return fail(fmt.Errorf("replay child measured %d of %d jobs", len(res.Measurements), r.jobs))
	}
	tr.adopt(run, sp, res.Spans)
	if r.first == nil {
		r.first = res.Measurements
	} else if simDigest(r.first) != simDigest(res.Measurements) {
		return fail(fmt.Errorf("pass %d: simulated results differ from the first pass", n))
	}
	out.wall, out.rssMB = wall, res.PeakRSSMB
	packets := 0
	for _, m := range res.Measurements {
		out.opMS = append(out.opMS, float64(m.WallNS)/1e6)
		packets += m.Packets
	}
	if tr != nil {
		out.layer = map[string]float64{"testbed.replay_kpps": float64(packets) / 1e3 / wall.Seconds()}
	}
	return out
}

// simDigest folds every simulated median into one number (the top 48
// bits of a SHA-256, exact in a float64). It must not move when only
// host speed is being optimised.
func simDigest(ms []replayMeasurement) float64 {
	h := sha256.New()
	for _, m := range ms {
		fmt.Fprintf(h, "%s/%s %v %v %v %v %v\n", m.NF, m.Workload, m.LatencyNS, m.Cycles, m.Instrs, m.L3Misses, m.Mpps)
	}
	return float64(binary.BigEndian.Uint64(h.Sum(nil)) >> 16)
}

// quality is the geometric mean of the median cycles per packet over the
// replayed (NF, traffic) pairs — not adversarial here, but the same
// simulated cost the analysis workloads report for their outputs.
func (r *replayInstance) quality() (float64, []string) {
	var cycles []float64
	for _, m := range r.first {
		cycles = append(cycles, m.Cycles)
	}
	return geomean(cycles), nil
}

func (r *replayInstance) close() {}
