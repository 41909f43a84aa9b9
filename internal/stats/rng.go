// Package stats provides the probabilistic primitives used across the
// exploratory-training framework: deterministic random number generation,
// Beta distributions for belief modeling, entropy measures, and
// numerically careful aggregation.
//
// Every source of randomness in the repository flows through an *RNG so
// that experiments are reproducible bit-for-bit for a fixed seed.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator based on the
// splitmix64 / xoshiro256** family. It is intentionally self-contained
// (no math/rand) so that sequences are stable across Go releases, which
// keeps the benchmark harness reproducible.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed via splitmix64,
// as recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// A freshly seeded state of all zeros is invalid; splitmix64 cannot
	// produce it for any seed, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output, which lets one master seed fan out
// to per-component generators (one per agent, per sampler, per run).
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics if k > n or k < 0. The result is in random order.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	return r.SampleInto(nil, n, k)
}

// SampleInto is SampleWithoutReplacement drawing into buf's storage: it
// makes the same RNG calls and returns the same indices, in buf[:k]
// when buf has the capacity for them and their membership set, else in
// a fresh allocation. Passing the result back as buf reuses it, so a
// caller drawing repeatedly allocates once.
func (r *RNG) SampleInto(buf []int, n, k int) []int {
	if k < 0 || k > n {
		panic("stats: sample size k out of range [0, n]")
	}
	if k == 0 {
		return buf[:0]
	}
	// Floyd's algorithm: O(k) memory, no O(n) allocation. The draws so
	// far also sit in an open-addressing hash set of at least 2k slots,
	// carved from the same storage as the result, so a membership test
	// is O(1) expected instead of a scan of the draws.
	b := bits.Len(uint(2*k - 1))
	size := k + 1<<b
	if cap(buf) < size {
		buf = make([]int, size)
	} else {
		buf = buf[:size]
		clear(buf[k:])
	}
	out, set := buf[:0], buf[k:]
	shift := uint(64 - b)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		h := setSlot(set, t, shift)
		if set[h] != 0 {
			// t was drawn before; j was not, as every earlier draw is < j.
			t = j
			h = setSlot(set, t, shift)
		}
		set[h] = t + 1
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// setSlot returns v's slot in SampleInto's set of
// 1<<(64-shift) slots, each holding a drawn value plus one or 0 when
// empty: the slot holding v, or the empty slot its linear probe
// reaches.
func setSlot(set []int, v int, shift uint) int {
	h := int(uint64(v) * 0x9e3779b97f4a7c15 >> shift)
	for set[h] != 0 && set[h] != v+1 {
		h = (h + 1) & (len(set) - 1)
	}
	return h
}

// State exposes the generator's xoshiro256** state words so a
// checkpoint can capture the exact position in the stream.
func (r *RNG) State() [4]uint64 { return r.s }

// RestoreState resumes the generator at a previously captured State, so
// the restored stream continues bit-for-bit where the captured one
// stopped. The all-zero state is xoshiro's single invalid fixed point
// and is rejected.
func (r *RNG) RestoreState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return fmt.Errorf("stats: all-zero RNG state is invalid")
	}
	r.s = s
	return nil
}
