package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule
// (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// atDeadline counts op latencies (ms) at or past the wizards' default
// wall-clock retrieval deadline. An op in which a retrieval timed out
// took at least that long, so a workload that reaches no deadline
// reports 0.
func atDeadline(lat []float64) int {
	n := 0
	for _, l := range lat {
		if l >= ms(deadlineOf) {
			n++
		}
	}
	return n
}

// minOps is the smallest op count at which the q-quantile has at least
// ten samples beyond it: a workload runs past its time budget until it
// has that many, so its tail percentile is always supported.
func minOps(q float64) int {
	return int(math.Ceil(10/(1-q))) + 1
}

// memSamples read the collector's heap goal and the cumulative
// allocated bytes without stopping the world.
var memSamples = []metrics.Sample{
	{Name: "/gc/heap/goal:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
}

type memReading struct{ goal, allocs uint64 }

func readMem() memReading {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return memReading{goal: s[0].Value.Uint64(), allocs: s[1].Value.Uint64()}
}

// heapPeak samples the heap goal every few milliseconds until stopped
// and keeps the largest reading. The goal is the heap size the
// collector lets the program reach before it collects: it follows the
// live heap (twice it at the default GOGC), not how far a collection
// that started late overshot.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.note()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) note() {
	v := readMem().goal
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	h.note()
	return float64(h.peak) / (1 << 20)
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupTimes measures a fresh set-up: it takes samples of batch
// set-ups each, every sample after a collection so garbage from the
// previous one is not charged to it, and returns the median time of
// one set-up in seconds. A sample of many set-ups lasts tens of
// milliseconds, so timer and scheduler noise do not decide it. build
// returns a teardown, which runs after the sample's clock stops.
func setupTimes(samples, batch int, build func() (func(), error)) (float64, error) {
	var xs []float64
	teardowns := make([]func(), batch)
	for i := 0; i < samples; i++ {
		runtime.GC()
		t0 := time.Now()
		for b := range teardowns {
			teardown, err := build()
			if err != nil {
				return 0, err
			}
			teardowns[b] = teardown
		}
		xs = append(xs, time.Since(t0).Seconds()/float64(batch))
		for _, teardown := range teardowns {
			teardown()
		}
	}
	// The heap goal the batches left would otherwise stand as the
	// first peak_heap_mb reading of a window that follows (the traced
	// half of a -trace 1 run).
	runtime.GC()
	return median(xs), nil
}

// opClock records the designer's op latencies and the memory counters
// around a timed window.
type opClock struct {
	lat      []float64 // ms
	start    time.Time
	end      time.Time
	mem0     memReading
	mem1     memReading
	heapPeak *heapPeak
}

func startClock() *opClock {
	c := &opClock{}
	c.mem0 = readMem()
	c.heapPeak = startHeapPeak()
	c.start = time.Now()
	return c
}

func (c *opClock) add(d time.Duration) { c.lat = append(c.lat, ms(d)) }

func (c *opClock) n() int { return len(c.lat) }

// stop closes the window and fills the end-to-end op metrics. Every op
// that reached the retrieval deadline is a failed op: past it the
// wizards fall back to synthetic examples, so the dialog would measure
// the deadline rather than the work.
func (c *opClock) stop(rep *report, tailQ float64) {
	c.end = time.Now()
	c.mem1 = readMem()
	peak := c.heapPeak.Stop()
	n := float64(len(c.lat))
	rep.e2e["op_p50_ms"] = median(c.lat)
	rep.e2e["op_tail_ms"] = quantile(c.lat, tailQ)
	rep.e2e["ops_per_s"] = n / c.end.Sub(c.start).Seconds()
	rep.e2e["alloc_kb_per_op"] = ratio(float64(c.mem1.allocs-c.mem0.allocs)/1024, n)
	rep.e2e["peak_heap_mb"] = peak
	rep.env["ops"] = len(c.lat)
	rep.env["tail_quantile"] = tailQ
	hits := atDeadline(c.lat)
	rep.env["ops_at_retrieval_deadline"] = hits
	if hits > 0 {
		rep.failN(int64(hits), "%d ops took at least the %v retrieval deadline", hits, deadlineOf)
	}
}
