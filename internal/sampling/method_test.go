package sampling

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func TestMethodStringParseRoundTrip(t *testing.T) {
	concrete := []Method{
		MethodRandom, MethodUS, MethodStochasticBR,
		MethodStochasticUS, MethodQBC, MethodEpsilonGreedy,
	}
	for _, m := range concrete {
		back, err := ParseMethod(m.String())
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", m.String(), err)
		}
		if back != m {
			t.Fatalf("round trip %v → %q → %v", m, m.String(), back)
		}
	}
	if MethodDefault.String() != MethodStochasticUS.String() {
		t.Fatalf("MethodDefault renders as %q", MethodDefault.String())
	}
	if MethodDefault.Resolve() != MethodStochasticUS {
		t.Fatalf("MethodDefault resolves to %v", MethodDefault.Resolve())
	}
}

func TestParseMethodUnknown(t *testing.T) {
	if _, err := ParseMethod("nope"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("ParseMethod unknown: err = %v, want ErrUnknownMethod", err)
	}
	if _, err := ByName("nope", 0.5); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("ByName unknown: err = %v, want ErrUnknownMethod", err)
	}
	if _, err := New(Method(42), 0.5); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("New invalid: err = %v, want ErrUnknownMethod", err)
	}
}

func TestMethodJSONRoundTrip(t *testing.T) {
	type payload struct {
		Method Method `json:"method,omitempty"`
	}
	b, err := json.Marshal(payload{Method: MethodStochasticBR})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"method":"StochasticBR"}` {
		t.Fatalf("marshal = %s", b)
	}
	var back payload
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Method != MethodStochasticBR {
		t.Fatalf("unmarshal = %v", back.Method)
	}
	// An absent or empty field decodes to the default.
	var empty payload
	if err := json.Unmarshal([]byte(`{"method":""}`), &empty); err != nil {
		t.Fatal(err)
	}
	if empty.Method != MethodDefault {
		t.Fatalf("empty method = %v", empty.Method)
	}
	if err := json.Unmarshal([]byte(`{"method":"bad"}`), &empty); err == nil {
		t.Fatal("unknown wire method should fail to decode")
	}
}

func TestNewResolvesSamplers(t *testing.T) {
	for _, m := range append(Methods(), MethodQBC, MethodEpsilonGreedy, MethodDefault) {
		s, err := New(m, 0.5)
		if err != nil {
			t.Fatalf("New(%v): %v", m, err)
		}
		if s.Name() != m.String() {
			t.Fatalf("New(%v).Name() = %q, want %q", m, s.Name(), m.String())
		}
	}
}

func TestNewRejectsBadGamma(t *testing.T) {
	for _, gamma := range []float64{-1, -0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, m := range append(Methods(), MethodQBC, MethodEpsilonGreedy, MethodDefault) {
			if _, err := New(m, gamma); !errors.Is(err, ErrBadGamma) {
				t.Fatalf("New(%v, %v): err = %v, want ErrBadGamma", m, gamma, err)
			}
		}
		if _, err := ByName("StochasticBR", gamma); !errors.Is(err, ErrBadGamma) {
			t.Fatalf("ByName(StochasticBR, %v): err = %v, want ErrBadGamma", gamma, err)
		}
	}
	for _, gamma := range []float64{0, 1e-4, 0.5, 5} {
		if _, err := New(MethodStochasticUS, gamma); err != nil {
			t.Fatalf("New(StochasticUS, %v): %v", gamma, err)
		}
	}
}
