package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"cmfl/internal/core"
	"cmfl/internal/emu"
	"cmfl/internal/fl"
	"cmfl/internal/nn"
	"cmfl/internal/sim"
	"cmfl/internal/telemetry"
)

// seams is what a traced repetition wraps around the engine's inputs. The
// zero value (untraced) passes every input through untouched.
type seams struct {
	tr    *tracer
	round atomic.Int64 // the round in progress, for codec calls, which carry none
}

func (s *seams) traced() bool { return s.tr != nil }

func (s *seams) filter(in *instance) fl.UploadFilter {
	if in.filter == nil || !s.traced() {
		return in.filter
	}
	return wrapFilter(in.filter, s.tr)
}

// codec wraps the codec on tiers that accept a foreign fl.UpdateCodec.
func (s *seams) codec(in *instance) fl.UpdateCodec {
	if in.codec == nil {
		return nil
	}
	if !s.traced() || in.spec.Tier == tierEmu {
		return in.codec
	}
	return &tracedCodec{inner: in.codec, tr: s.tr, round: &s.round}
}

func (s *seams) schedule(in *instance) core.Schedule {
	if !s.traced() {
		return in.lr
	}
	return &tracedSchedule{inner: in.lr, tr: s.tr, round: &s.round}
}

func (s *seams) dist(d sim.Dist) sim.Dist {
	if !s.traced() {
		return d
	}
	return countedDist{inner: d, tr: s.tr}
}

// outcome is what one engine call produced, reduced to what the checks and
// metrics need.
type outcome struct {
	finalParams   []float64
	finalAccuracy float64

	// Emulation tier.
	uplinkWire, downlinkWire int64
	lateFrames, dupFrames    int
	rejoins                  int
	codecUpdates             int
	codecEncoded, codecRaw   int64

	// Simulation tier.
	lateReplies   int
	virtualRoundS []float64 // per-round virtual duration, seconds
}

// runEngine makes the one timed call: fl.Run, emu.RunCluster or sim.Run,
// with the observer attached and the seams wrapped when tracing.
func runEngine(in *instance, s *seams, log *roundLog) (*outcome, error) {
	nproc := runtime.GOMAXPROCS(0)
	obs := []telemetry.Observer{log}
	switch in.spec.Tier {
	case tierFL:
		res, err := fl.Run(fl.Config{
			Model: in.model, ClientData: in.shards, TestData: in.test,
			Epochs: in.spec.Epochs, Batch: in.spec.Batch, LR: s.schedule(in),
			Filter: s.filter(in), Compressor: s.codec(in), ErrorFeedback: in.spec.ErrorFeedback,
			Rounds: in.spec.Rounds, EvalEvery: 1,
			Parallelism: nproc, Seed: in.seed, Observers: obs,
		})
		if err != nil {
			return nil, err
		}
		return &outcome{finalParams: res.FinalParams, finalAccuracy: res.FinalAccuracy()}, nil
	case tierEmu:
		res, err := emu.RunCluster(emu.ClusterConfig{
			Model: in.model, ClientData: in.shards, TestData: in.test,
			Epochs: in.spec.Epochs, Batch: in.spec.Batch, LR: s.schedule(in),
			Filter: s.filter(in), Compressor: s.codec(in), ErrorFeedback: in.spec.ErrorFeedback,
			Rounds: in.spec.Rounds, EvalEvery: 1, Seed: in.seed,
			Topology:  emu.Topology{Shards: in.spec.Shards},
			Observers: obs,
		})
		if err != nil {
			return nil, err
		}
		sr := res.Server
		return &outcome{
			finalParams: sr.FinalParams, finalAccuracy: sr.FinalAccuracy(),
			uplinkWire: sr.UplinkWireBytes, downlinkWire: sr.DownlinkWireBytes,
			lateFrames: sr.LateFrames, dupFrames: sr.DupFrames, rejoins: sr.Rejoins,
			codecUpdates: sr.CodecUpdates, codecEncoded: sr.CodecEncodedBytes, codecRaw: sr.CodecRawBytes,
		}, nil
	case tierSim:
		res, err := sim.Run(sim.Config{
			Model: in.model, ClientData: in.shards,
			Epochs: in.spec.Epochs, Batch: in.spec.Batch, LR: s.schedule(in),
			Filter: s.filter(in), Compressor: s.codec(in),
			Rounds: in.spec.Rounds, Seed: in.seed, Shards: nproc,
			Arrival: s.dist(in.arrival), Latency: s.dist(in.latency),
			BandwidthBytesPerSec: in.spec.Bandwidth, Availability: in.spec.Availability,
			RoundDeadline: in.deadline, Observers: obs,
		})
		if err != nil {
			return nil, err
		}
		out := &outcome{finalParams: res.FinalParams, finalAccuracy: math.NaN(), lateReplies: res.LateReplies}
		for _, st := range res.History {
			out.virtualRoundS = append(out.virtualRoundS, (st.VirtualEnd - st.VirtualStart).Seconds())
		}
		return out, nil
	}
	return nil, fmt.Errorf("%s: unknown tier %q", in.spec.Name, in.spec.Tier)
}

// heldOutAccuracy evaluates params on the instance's test set in bounded
// forward batches, as the fl and emu engines' own evaluators do. sim has
// no evaluator, so its final_accuracy comes from here, outside the timed
// region.
func heldOutAccuracy(in *instance, params []float64) (float64, error) {
	net := in.model()
	if err := net.SetParamVector(params); err != nil {
		return 0, err
	}
	return evalBatched(net, in), nil
}

func evalBatched(net *nn.Network, in *instance) float64 {
	const evalBatch = 64
	correct := 0.0
	for lo := 0; lo < in.test.Len(); lo += evalBatch {
		hi := min(lo+evalBatch, in.test.Len())
		x, y := in.test.BatchView(lo, hi)
		correct += nn.Accuracy(net, x, y) * float64(hi-lo)
	}
	return correct / float64(in.test.Len())
}
