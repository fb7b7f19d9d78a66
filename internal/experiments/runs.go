package experiments

import (
	"fmt"

	"cmfl/internal/core"
	"cmfl/internal/fl"
	"cmfl/internal/gaia"
)

// gate is how a run's clients decide whether to upload: Alg vanilla (every
// update goes up), gaia (significance against a constant Threshold) or cmfl
// (relevance against Threshold, or Threshold/√t when Decay).
type gate struct {
	Alg       string
	Threshold float64
	Decay     bool
}

// vanillaGate is the run Figs. 1–3 analyse and Fig. 4 and the sweeps
// compare against.
var vanillaGate = gate{Alg: "vanilla"}

// gates are the three runs of Figs. 4 and 7, in run order: vanilla, Gaia at
// the workload's GaiaThreshold, CMFL at its CMFLThreshold.
func gates(t *Training) [3]gate {
	return [3]gate{vanillaGate, {Alg: "gaia", Threshold: t.GaiaThreshold}, {Alg: "cmfl", Threshold: t.CMFLThreshold, Decay: t.CMFLDecay}}
}

// filter builds a fresh upload filter for the gate (nil for vanilla).
func (g gate) filter() fl.UploadFilter {
	switch g.Alg {
	case "gaia":
		return gaia.NewFilter(core.Constant(g.Threshold))
	case "cmfl":
		return core.NewFilter(scheduleFor(g.Threshold, g.Decay))
	}
	return nil
}

func scheduleFor(v float64, decay bool) core.Schedule {
	if decay {
		return core.InvSqrt{V0: v}
	}
	return core.Constant(v)
}

// Runs is one process's store of trained runs. It builds each setup's
// federation once, trains each (setup, gate) at most once and hands every
// reader the same *fl.Result, so the vanilla run that Figs. 1–4 and the
// sweeps all read is trained once. A run's key is the whole setup value
// (its %#v form) plus the gate: a setup edited in place is another run.
// Only Fig. 1 reads ClientParams, from a vanilla run, so a gated run drops
// them before it is kept. The zero value is ready to use; a Runs is not
// safe for concurrent use.
type Runs struct {
	feds    map[string]*Federation
	results map[string]*fl.Result
	trained int // fl.Run calls
}

// result returns w's run under g, training it on the first request.
func (s *Runs) result(w Workload, g gate) (*fl.Result, error) {
	setup := fmt.Sprintf("%#v", w)
	key := fmt.Sprintf("%s %+v", setup, g)
	if res, ok := s.results[key]; ok {
		return res, nil
	}
	if s.results == nil {
		s.feds, s.results = map[string]*Federation{}, map[string]*fl.Result{}
	}
	fed, ok := s.feds[setup]
	if !ok {
		var err error
		if fed, err = w.Build(); err != nil {
			return nil, err
		}
		s.feds[setup] = fed
	}
	s.trained++
	res, err := fl.Run(w.Train().FLConfig(fed, g.filter()))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s run %+v: %w", w.Name(), g, err)
	}
	if g != vanillaGate {
		res.ClientParams = nil
	}
	s.results[key] = res
	return res, nil
}
