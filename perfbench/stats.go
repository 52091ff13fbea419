package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// samples is a concurrency-safe list of measurements in one unit.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addSince(start time.Time, unit time.Duration) {
	s.add(float64(time.Since(start)) / float64(unit))
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// kinded keeps samples apart by input kind: sweep grid shape, session
// format × chunk × estimator set, repro experiment. A median over a mix
// of kinds sits on the boundary between two of them and jumps when
// either moves; summary instead takes each kind's median and combines
// them by geometric mean, so every kind counts once whatever its share
// of the samples.
type kinded struct {
	mu sync.Mutex
	by map[string]*samples
}

func (k *kinded) of(kind string) *samples {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.by == nil {
		k.by = map[string]*samples{}
	}
	s := k.by[kind]
	if s == nil {
		s = &samples{}
		k.by[kind] = s
	}
	return s
}

func (k *kinded) addSince(kind string, start time.Time, unit time.Duration) {
	k.of(kind).addSince(start, unit)
}

// median is one kind's median.
func (k *kinded) median(kind string) float64 { return median(k.of(kind).values()) }

// summary is the geometric mean over kinds of each kind's median.
func (k *kinded) summary() float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.by) == 0 {
		return math.NaN()
	}
	logSum := 0.0
	for _, s := range k.by {
		logSum += math.Log(median(s.values()))
	}
	return math.Exp(logSum / float64(len(k.by)))
}

// all pools every kind's samples.
func (k *kinded) all() []float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	var v []float64
	for _, s := range k.by {
		v = append(v, s.values()...)
	}
	return v
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics (NaN for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// memSampler samples, at a fixed period, the memory the Go runtime
// holds from the OS: every mapped class minus heap returned to the OS.
// A peak would measure when the collector happened to run; the median
// over a run measures the working set.
type memSampler struct {
	stop, done chan struct{}
	mib        samples
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	read := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	sample := func() {
		metrics.Read(read)
		m.mib.add(float64(read[0].Value.Uint64()-read[1].Value.Uint64()) / (1 << 20))
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		sample()
		for {
			select {
			case <-t.C:
				sample()
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

// finish stops sampling and returns the median in MiB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return median(m.mib.values())
}

// splitmix derives independent 64-bit values from a seed and an index,
// so input i of a run does not depend on how many inputs came before.
func splitmix(seed int64, i uint64) uint64 {
	z := uint64(seed) + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
