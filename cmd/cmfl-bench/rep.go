package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cmfl/internal/fl"
)

// repRequest asks for one repetition of one workload. Every repetition of a
// full run executes in a fresh child process, so peak RSS and allocation
// counts belong to exactly one engine call.
type repRequest struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// TraceOut, when set on a traced repetition, receives the span JSONL.
	TraceOut string `json:"trace_out,omitempty"`
}

// How often a repetition builds its set-up: see runRep.
const (
	minSetups    = 5
	maxSetups    = 101
	cheapSetupsS = 0.5
)

// check is one correctness check of a repetition.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// repResult is what a repetition reports to the orchestrating parent.
type repResult struct {
	Workload     string `json:"workload"`
	ScenarioHash string `json:"scenario_hash"`
	Spec         spec   `json:"spec"`
	Dim          int    `json:"dim"`

	SetupS      []float64 `json:"setup_s"`
	WallS       float64   `json:"wall_s"`
	CPUS        float64   `json:"cpu_s"`
	RoundWallMS []float64 `json:"round_wall_ms"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	Mallocs     uint64    `json:"mallocs"`

	// Attempted is the client-rounds the run set out to do; after a
	// successful run it is Σ Participants.
	Attempted      int64   `json:"attempted_client_rounds"`
	Uploads        int64   `json:"uploads"`
	Skips          int64   `json:"skips"`
	Dropped        int64   `json:"dropped"`
	CumUplinkBytes int64   `json:"cum_uplink_bytes"`
	FinalAccuracy  float64 `json:"final_accuracy"`
	ParamsSHA256   string  `json:"params_sha256"`

	Checks []check `json:"checks"`
	// Err is set when the engine call (or set-up) failed; the repetition is
	// then invalid and all its client-rounds count as failed.
	Err string `json:"error,omitempty"`

	// Traced repetitions only: per-layer metrics by name, the modelled
	// per-round milliseconds of each layer, and seam call counts.
	Layers  map[string]float64 `json:"layers,omitempty"`
	LayerMS map[string]float64 `json:"layer_ms_per_round,omitempty"`
	Counts  map[string]int64   `json:"counts,omitempty"`
}

// valid reports whether the repetition ran and passed every check.
func (r *repResult) valid() bool {
	if r.Err != "" {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// repRunner executes a repetition. The benchmark spawns a child process per
// repetition; the smoke tests run repetitions in-process, where a test
// binary cannot re-exec itself as the benchmark.
type repRunner func(repRequest) (*repResult, error)

// spawnRep runs the repetition in a fresh child process and waits for it.
// An interrupt or SIGTERM to the parent kills the child and still waits, so
// no path out of the benchmark leaves a repetition running.
func spawnRep(req repRequest) (*repResult, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", req.Workload, err)
	}
	doc, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", req.Workload, err)
	}
	cmd := exec.CommandContext(ctx, self, "-child", string(doc))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("spawn %s: child: %w", req.Workload, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("spawn %s: child result: %w", req.Workload, err)
	}
	return &res, nil
}

// runRep executes one repetition in this process. Failures of the engine or
// of set-up are reported inside the result (an invalid repetition is data);
// the error return is for requests that cannot be attempted at all.
func runRep(req repRequest) (*repResult, error) {
	s, err := lookupSpec(req.Workload, req.Scale)
	if err != nil {
		return nil, err
	}
	hash, err := scenarioHash(s, req.Seed)
	if err != nil {
		return nil, err
	}
	res := &repResult{
		Workload: s.Name, ScenarioHash: hash, Spec: s,
		Attempted: int64(s.Clients) * int64(s.Rounds),
	}

	// Set-up is built and timed several times (the last build is the one
	// the engine runs on) and setup_s is the median: five builds at least,
	// up to 101 while they are cheap, because a 2 ms build is mostly noise.
	// The previous build is collected and its pages returned first, so peak
	// RSS holds one population and every build starts equally cold: left to
	// the background scavenger, a 2 ms build is 1.6 ms or 2.5 ms depending
	// on whether its pages happen to be resident still.
	var in *instance
	var setupTotal float64
	for len(res.SetupS) < minSetups || (len(res.SetupS) < maxSetups && setupTotal < cheapSetupsS) {
		in = nil
		debug.FreeOSMemory() // runs a collection first
		start := time.Now()
		if in, err = setup(s, req.Seed); err != nil {
			res.Err = err.Error()
			return res, nil
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
		setupTotal += res.SetupS[len(res.SetupS)-1]
	}
	res.Dim = in.dim

	var sm seams
	if req.Traced {
		sm.tr = newTracer(s.Rounds)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := cpuSeconds()
	log := &roundLog{origin: time.Now()}
	if sm.traced() {
		log.origin = sm.tr.origin
	}
	if s.Tier == tierEmu {
		log.feedback, _ = in.filter.(fl.FilterFeedback)
	}
	out, runErr := runEngine(in, &sm, log)
	res.WallS = time.Since(log.origin).Seconds()
	res.CPUS = cpuSeconds() - cpuBefore
	runtime.ReadMemStats(&after)
	res.PeakRSSMB = peakRSSMB()
	res.Mallocs = after.Mallocs - before.Mallocs
	if runErr != nil {
		res.Err = runErr.Error()
		return res, nil
	}

	res.Attempted = 0
	prev := int64(0)
	for i, e := range log.events {
		res.Attempted += int64(e.Participants)
		res.Uploads += int64(e.Uploaded)
		res.Skips += int64(e.Skipped)
		res.Dropped += int64(e.Dropped)
		res.RoundWallMS = append(res.RoundWallMS, float64(log.endNS[i]-prev)/1e6)
		prev = log.endNS[i]
	}
	if n := len(log.events); n > 0 {
		res.CumUplinkBytes = log.events[n-1].CumUplinkBytes
	}
	image := make([]byte, 0, 8*len(out.finalParams)) // little-endian IEEE-754
	for _, x := range out.finalParams {
		image = binary.LittleEndian.AppendUint64(image, math.Float64bits(x))
	}
	sum := sha256.Sum256(image)
	res.ParamsSHA256 = hex.EncodeToString(sum[:])
	res.FinalAccuracy = out.finalAccuracy
	if s.Tier == tierSim {
		if res.FinalAccuracy, err = heldOutAccuracy(in, out.finalParams); err != nil {
			res.Err = err.Error()
			return res, nil
		}
	}
	if math.IsNaN(res.FinalAccuracy) {
		res.FinalAccuracy = 0 // no round evaluated; the accuracy floor check reports it
	}
	res.Checks = checkRep(in, res, out, log)

	if req.Traced {
		mem := memDelta{
			gcCycles: after.NumGC - before.NumGC,
			pauseNS:  after.PauseTotalNs - before.PauseTotalNs,
			allocB:   after.TotalAlloc - before.TotalAlloc,
		}
		tc := sm.tr.finish(int64(res.WallS*1e9), log.endNS)
		if res.Layers, res.LayerMS, res.Counts, err = layerMetrics(in, res, out, log, tc, mem, probeBudget(req.Scale)); err != nil {
			res.Err = err.Error()
		}
		if req.TraceOut != "" {
			if err := tc.writeJSONL(req.TraceOut); err != nil {
				res.Err = err.Error()
			}
		}
	}
	return res, nil
}

// checkRep runs the per-repetition correctness checks. Cross-repetition
// checks (identical params_sha256) are the parent's.
func checkRep(in *instance, res *repResult, out *outcome, log *roundLog) []check {
	var checks []check
	add := func(name string, ok bool, format string, args ...any) {
		checks = append(checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	accounting := fmt.Sprintf("uploaded+skipped+dropped == participants in all %d rounds", len(log.events))
	balanced := true
	for _, e := range log.events {
		if balanced && e.Uploaded+e.Skipped+e.Dropped != e.Participants {
			balanced = false
			accounting = fmt.Sprintf("round %d: %d uploaded + %d skipped + %d dropped != %d participants", e.Round, e.Uploaded, e.Skipped, e.Dropped, e.Participants)
		}
	}
	add("rounds_complete", len(log.events) == in.spec.Rounds, "%d of %d rounds observed", len(log.events), in.spec.Rounds)
	add("round_accounting", balanced, "%s", accounting)
	add("uplink_bytes_ledger", res.CumUplinkBytes == log.clientBytes,
		"CumUplinkBytes %d vs Σ payload bytes + 16×skips %d", res.CumUplinkBytes, log.clientBytes)
	if in.spec.Tier == tierEmu {
		add("emu_wire_covers_app", out.uplinkWire >= res.CumUplinkBytes, "uplink wire %d vs app %d bytes", out.uplinkWire, res.CumUplinkBytes)
		add("emu_no_rejoins", out.rejoins == 0, "%d rejoins", out.rejoins)
	}
	add("accuracy_floor", res.FinalAccuracy >= in.spec.AccuracyFloor && res.FinalAccuracy > 0,
		"final accuracy %.4f vs floor %.4f", res.FinalAccuracy, in.spec.AccuracyFloor)
	if g := in.spec.Gate; g != nil {
		// Useful outcomes ÷ attempts at the gate, warm-up rounds included.
		ratio := float64(res.Uploads) / float64(res.Uploads+res.Skips)
		add("gate_band", ratio >= g.Band[0] && ratio <= g.Band[1], "upload ratio %.4f vs band [%.2f, %.2f]", ratio, g.Band[0], g.Band[1])
	}
	return checks
}

// cpuSeconds is this process's user+system CPU time so far (0 if the
// kernel refuses to say; results are JSON, which has no NaN).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM); 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
