package tensor

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic xoshiro256**-based pseudo-random
// generator. Every stochastic component in the reproduction (weight init,
// graph generation, stochastic rounding, dropout) draws from an explicitly
// seeded RNG so experiments are replayable.
type RNG struct {
	s [4]uint64
	// cached second normal from Box-Muller
	hasGauss bool
	gauss    float64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state (cannot happen with splitmix64, but cheap to guard).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform sample in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// FillUint24 fills dst with the next len(dst) draws as Float32 takes them:
// Float32 would have returned float32(dst[i]) / (1 << 24) for i = 0, 1, …
// in that order, and the generator ends where those calls would have left
// it. The state lives in locals for the whole fill, which is what a loop
// with one draw per element cannot have through the pointer.
func (r *RNG) FillUint24(dst []uint32) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = uint32(bits.RotateLeft64(s1*5, 7) * 9 >> 40)
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform sample in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
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

// NormFloat64 returns a standard normal sample (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Split derives an independent generator; used to give each device or
// subsystem its own stream without sharing mutable state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// RNGState is a snapshot of a generator's full state, including the
// cached Box-Muller half. Restoring it replays the stream bit for bit;
// internal/quant's rounding generator loads the stream into locals and
// stores it back through it.
type RNGState struct {
	S        [4]uint64
	HasGauss bool
	Gauss    float64
}

// State snapshots the generator.
func (r *RNG) State() RNGState {
	return RNGState{S: r.s, HasGauss: r.hasGauss, Gauss: r.gauss}
}

// SetState restores a snapshot taken with State.
func (r *RNG) SetState(st RNGState) {
	r.s = st.S
	r.hasGauss = st.HasGauss
	r.gauss = st.Gauss
}

// FillUniform fills m with uniform samples in [lo, hi).
func (m *Matrix) FillUniform(r *RNG, lo, hi float32) {
	span := hi - lo
	for i := range m.Data {
		m.Data[i] = lo + span*r.Float32()
	}
}

// FillNormal fills m with Gaussian samples N(mean, std²).
func (m *Matrix) FillNormal(r *RNG, mean, std float32) {
	for i := range m.Data {
		m.Data[i] = mean + std*float32(r.NormFloat64())
	}
}

// XavierInit fills m with Glorot-uniform samples for a fanIn×fanOut weight.
func (m *Matrix) XavierInit(r *RNG, fanIn, fanOut int) {
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	m.FillUniform(r, -limit, limit)
}
