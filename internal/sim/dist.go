package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"cmfl/internal/xrand"
)

// Dist is a distribution over virtual durations. Every draw comes from the
// caller's seeded stream, so a Dist value itself is stateless and safe to
// share across clients — each client's sequence of draws is determined by
// its own stream, independent of scheduling. A reply saturates each sample
// at ±never.
type Dist interface {
	Name() string
	Sample(rng *xrand.Stream) time.Duration
}

// never is the delay of a reply that never arrives, about 73 years. A reply
// saturates each of its three delay terms at ±never, so they sum without
// overflow, and its delay at never. The virtual clock saturates at never
// too, so the clock plus a delay cannot overflow either.
const never = time.Duration(1 << 61)

// saturate clamps d to [-never, never].
func saturate(d time.Duration) time.Duration { return min(max(d, -never), never) }

// nanos converts a draw in nanoseconds to a Duration saturated at ±never:
// converting a float64 beyond the int64 range is implementation-defined (on
// amd64 it wraps to the most negative Duration), and NaN never arrives.
func nanos(f float64) time.Duration {
	switch {
	case !(f < float64(never)):
		return never
	case f < -float64(never):
		return -never
	}
	return time.Duration(f)
}

// FixedDist always returns D. It draws nothing from the stream, so swapping
// a FixedDist for a random one changes the per-client draw count — keep
// that in mind when comparing runs across distribution families.
type FixedDist struct{ D time.Duration }

// Name implements Dist.
func (d FixedDist) Name() string { return fmt.Sprintf("fixed:%v", d.D) }

// Sample implements Dist.
func (d FixedDist) Sample(*xrand.Stream) time.Duration { return d.D }

// UniformDist draws uniformly from [Lo, Hi).
type UniformDist struct{ Lo, Hi time.Duration }

// Name implements Dist.
func (d UniformDist) Name() string { return fmt.Sprintf("uniform:%v,%v", d.Lo, d.Hi) }

// Sample implements Dist.
func (d UniformDist) Sample(rng *xrand.Stream) time.Duration {
	return saturate(d.Lo) + nanos(rng.Float64()*(float64(d.Hi)-float64(d.Lo)))
}

// LogNormalDist draws log-normally with the given median and log-space
// sigma — the standard heavy-tailed model for edge-device round-trip
// times, where a small straggler population dominates the tail.
type LogNormalDist struct {
	Median time.Duration
	Sigma  float64
}

// Name implements Dist.
func (d LogNormalDist) Name() string { return fmt.Sprintf("lognormal:%v,%g", d.Median, d.Sigma) }

// Sample implements Dist.
func (d LogNormalDist) Sample(rng *xrand.Stream) time.Duration {
	return nanos(float64(d.Median) * math.Exp(d.Sigma*rng.Norm()))
}

// ExpDist draws exponentially with the given mean.
type ExpDist struct{ Mean time.Duration }

// Name implements Dist.
func (d ExpDist) Name() string { return fmt.Sprintf("exp:%v", d.Mean) }

// Sample implements Dist.
func (d ExpDist) Sample(rng *xrand.Stream) time.Duration {
	return nanos(-float64(d.Mean) * math.Log(1-rng.Float64()))
}

// ParseDist parses a distribution spec of the forms
//
//	fixed:<dur>            e.g. fixed:10ms
//	uniform:<lo>,<hi>      e.g. uniform:5ms,50ms
//	lognormal:<med>,<sig>  e.g. lognormal:20ms,0.5
//	exp:<mean>             e.g. exp:30ms
//
// Durations use Go syntax (time.ParseDuration) and must not be negative;
// sigma must be finite and non-negative. An empty spec or "none" yields
// fixed:0.
func ParseDist(spec string) (Dist, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return FixedDist{}, nil
	}
	kind, args, _ := strings.Cut(spec, ":")
	switch kind {
	case "fixed":
		d, err := duration(args)
		if err != nil {
			return nil, fmt.Errorf("sim: dist %q: %v", spec, err)
		}
		return FixedDist{D: d}, nil
	case "uniform":
		lo, hi, ok := strings.Cut(args, ",")
		if !ok {
			return nil, fmt.Errorf("sim: dist %q: want uniform:<lo>,<hi>", spec)
		}
		loD, err1 := duration(strings.TrimSpace(lo))
		hiD, err2 := duration(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || hiD < loD {
			return nil, fmt.Errorf("sim: dist %q: want two non-negative durations with hi >= lo", spec)
		}
		return UniformDist{Lo: loD, Hi: hiD}, nil
	case "lognormal":
		med, sig, ok := strings.Cut(args, ",")
		if !ok {
			return nil, fmt.Errorf("sim: dist %q: want lognormal:<median>,<sigma>", spec)
		}
		medD, err1 := duration(strings.TrimSpace(med))
		sigF, err2 := strconv.ParseFloat(strings.TrimSpace(sig), 64)
		if err1 != nil || err2 != nil || !(sigF >= 0) || math.IsInf(sigF, 1) {
			return nil, fmt.Errorf("sim: dist %q: want a non-negative duration median and a finite sigma >= 0", spec)
		}
		return LogNormalDist{Median: medD, Sigma: sigF}, nil
	case "exp":
		mean, err := duration(args)
		if err != nil {
			return nil, fmt.Errorf("sim: dist %q: %v", spec, err)
		}
		return ExpDist{Mean: mean}, nil
	}
	return nil, fmt.Errorf("sim: unknown dist kind %q (want fixed, uniform, lognormal or exp)", kind)
}

// duration parses a Go duration that a delay model can mean: not negative.
func duration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %v", d)
	}
	return d, err
}
