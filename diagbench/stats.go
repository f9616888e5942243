package main

import (
	"encoding/json"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of xs, averaging the two middle values of
// an even-length slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// countAbove is the number of samples strictly above v.
func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// solutionsKey is the byte form answers are compared in: the canonical
// solution list as JSON, with an empty list written as [].
func solutionsKey(sols [][]int) string {
	if sols == nil {
		sols = [][]int{}
	}
	b, _ := json.Marshal(sols)
	return string(b)
}

// heapPeak samples the live Go heap (as marked by the latest GC) until
// stopped, keeping the largest value seen.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []rtmetrics.Sample{{Name: liveHeapMetric}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 && s[0].Value.Uint64() > h.peak {
		h.peak = s[0].Value.Uint64()
	}
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	return float64(h.peak) / (1 << 20)
}
