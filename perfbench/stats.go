package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailCandidates are the percentiles a tail report may use, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples: the smallest sample at or above p percent of the data. The
// epsilon keeps float rounding (99.9·10000/100 = 9990.000…01) from
// moving the rank up by one.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(i, n-1))
}

// percentile returns the nearest-rank percentile p of the samples,
// which must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankIndex(p, len(sorted))]
}

// tail returns the highest of tailCandidates that leaves at least
// minBeyond samples above it, with its value. ok is false when even
// the median is not supported (fewer than 2·minBeyond samples).
func tail(sorted []float64) (p, v float64, ok bool) {
	n := len(sorted)
	for _, c := range tailCandidates {
		if n-(rankIndex(c, n)+1) >= minBeyond {
			return c, sorted[rankIndex(c, n)], true
		}
	}
	return 0, 0, false
}

// median returns the nearest-rank median of unsorted values (0 for
// none); the input is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bootClass is the class of boot samples, which are timed between load
// segments rather than as part of the load.
const bootClass = "boot"

// sample is one timed operation.
type sample struct {
	class string
	lat   time.Duration
	ok    bool
}

// classReport summarizes one request class of a run: what was sent,
// what succeeded, and its latency distribution over successful
// operations, with the tail percentile the sample count supports.
type classReport struct {
	Class     string  `json:"class"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	PerSecond float64 `json:"perSecond,omitempty"`
	P50MS     float64 `json:"p50Ms"`
	TailPct   float64 `json:"tailPct,omitempty"`
	TailMS    float64 `json:"tailMs,omitempty"`
	Samples   int     `json:"samples"`
}

// summarize groups samples by class, in first-seen order, and adds an
// "all" row over the load's classes (boots excluded) when there is more
// than one. Rates are successes per second of the measured phase, whose
// length is elapsed; a zero elapsed leaves them out.
func summarize(samples []sample, elapsed time.Duration) []classReport {
	var order []string
	var load []sample
	byClass := make(map[string][]sample)
	for _, s := range samples {
		if _, ok := byClass[s.class]; !ok {
			order = append(order, s.class)
		}
		byClass[s.class] = append(byClass[s.class], s)
		if s.class != bootClass {
			load = append(load, s)
		}
	}
	var out []classReport
	for _, c := range order {
		out = append(out, report(c, byClass[c]))
	}
	loadClasses := len(order)
	if _, ok := byClass[bootClass]; ok {
		loadClasses--
	}
	if loadClasses > 1 {
		out = append(out, report("all", load))
	}
	if elapsed > 0 {
		for i := range out {
			if out[i].Class != bootClass {
				out[i].PerSecond = float64(out[i].Succeeded) / elapsed.Seconds()
			}
		}
	}
	return out
}

// report summarizes one group of samples.
func report(class string, samples []sample) classReport {
	r := classReport{Class: class, Sent: len(samples)}
	var lats []float64
	for _, s := range samples {
		if s.ok {
			r.Succeeded++
			lats = append(lats, ms(s.lat))
		} else {
			r.Failed++
		}
	}
	r.Samples = len(lats)
	if len(lats) == 0 {
		return r
	}
	sort.Float64s(lats)
	r.P50MS = percentile(lats, 50)
	if p, v, ok := tail(lats); ok {
		r.TailPct, r.TailMS = p, v
	}
	return r
}

// latencies returns the successful latencies of the samples whose class
// passes keep, in milliseconds, sorted.
func latencies(samples []sample, keep func(class string) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && keep(s.class) {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}
