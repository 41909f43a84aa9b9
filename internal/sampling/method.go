package sampling

import (
	"errors"
	"fmt"
)

// Method is the typed identifier of a learner response strategy. It
// replaces the stringly-typed method names that used to flow through
// configuration structs: the zero value resolves to the paper's
// recommended StochasticUS, every concrete value round-trips through
// String/ParseMethod, and the type implements encoding.TextMarshaler /
// TextUnmarshaler so it can ride JSON wire formats directly.
type Method int

const (
	// MethodDefault is the zero value; it resolves to StochasticUS (the
	// paper's recommended strategy) wherever a concrete method is
	// needed, so zero-valued configuration keeps its historical default.
	MethodDefault Method = iota
	// MethodRandom is fixed random sampling, the paper's baseline.
	MethodRandom
	// MethodUS is greedy uncertainty sampling.
	MethodUS
	// MethodStochasticBR is stochastic best response (Section 4).
	MethodStochasticBR
	// MethodStochasticUS is stochastic uncertainty sampling (Section 4).
	MethodStochasticUS
	// MethodQBC is the query-by-committee extension.
	MethodQBC
	// MethodEpsilonGreedy is the ε-greedy extension.
	MethodEpsilonGreedy
)

// ErrUnknownMethod is the sentinel wrapped by ParseMethod, New and
// ByName when a method name or value is not recognized; test with
// errors.Is.
var ErrUnknownMethod = errors.New("sampling: unknown method")

// ErrBadGamma is the sentinel wrapped by New and ByName when the
// exploration temperature is negative or not finite; test with
// errors.Is.
var ErrBadGamma = errors.New("sampling: gamma must be zero or a positive finite number")

// methodNames maps each concrete method to the paper's name. Indexed by
// Method value minus MethodRandom.
var methodNames = [...]string{
	MethodRandom:        "Random",
	MethodUS:            "US",
	MethodStochasticBR:  "StochasticBR",
	MethodStochasticUS:  "StochasticUS",
	MethodQBC:           "QBC",
	MethodEpsilonGreedy: "EpsilonGreedy",
}

// Resolve maps MethodDefault to the concrete default (StochasticUS) and
// returns every other value unchanged.
func (m Method) Resolve() Method {
	if m == MethodDefault {
		return MethodStochasticUS
	}
	return m
}

// Valid reports whether m (after default resolution) names a known
// strategy.
func (m Method) Valid() bool {
	r := m.Resolve()
	return r >= MethodRandom && int(r) < len(methodNames)
}

// String returns the paper's method name. MethodDefault renders as the
// strategy it resolves to; out-of-range values render as
// "Method(<n>)".
func (m Method) String() string {
	r := m.Resolve()
	if r >= MethodRandom && int(r) < len(methodNames) {
		return methodNames[r]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod maps a paper method name ("Random", "US", "StochasticBR",
// "StochasticUS", "QBC", "EpsilonGreedy") to its Method. Unknown names
// return an error wrapping ErrUnknownMethod. ParseMethod(m.String())
// == m for every valid concrete method.
func ParseMethod(name string) (Method, error) {
	for m := MethodRandom; int(m) < len(methodNames); m++ {
		if methodNames[m] == name {
			return m, nil
		}
	}
	return MethodDefault, fmt.Errorf("%w %q", ErrUnknownMethod, name)
}

// MarshalText implements encoding.TextMarshaler: the wire form is the
// paper's method name.
func (m Method) MarshalText() ([]byte, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("%w %d", ErrUnknownMethod, int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. The empty string
// decodes to MethodDefault so omitted JSON fields keep the default.
func (m *Method) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*m = MethodDefault
		return nil
	}
	parsed, err := ParseMethod(string(b))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// New constructs the sampler for a method; gamma applies to the
// stochastic strategies (DefaultGamma when zero). A negative or
// non-finite gamma returns an error wrapping ErrBadGamma, whatever the
// method; an invalid method one wrapping ErrUnknownMethod.
func New(m Method, gamma float64) (Sampler, error) {
	if !validGamma(gamma) {
		return nil, fmt.Errorf("%w, got %v", ErrBadGamma, gamma)
	}
	switch m.Resolve() {
	case MethodRandom:
		return Random{}, nil
	case MethodUS:
		return Uncertainty{}, nil
	case MethodStochasticBR:
		return StochasticBR{Gamma: gamma}, nil
	case MethodStochasticUS:
		return StochasticUS{Gamma: gamma}, nil
	case MethodQBC:
		return QueryByCommittee{}, nil
	case MethodEpsilonGreedy:
		return EpsilonGreedy{}, nil
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownMethod, int(m))
	}
}

// Methods lists the paper's four strategies in presentation order.
func Methods() []Method {
	return []Method{MethodRandom, MethodUS, MethodStochasticBR, MethodStochasticUS}
}
