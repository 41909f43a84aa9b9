package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// heapWatch samples the live heap (/gc/heap/live:bytes, updated by
// every garbage collection) every 10ms, about as often as the sweep
// collects garbage.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// samples are appended by the sampling goroutine; read after close
	// has waited for it.
	samples []float64
	// settled is the reading settle took; owned by the caller.
	settled float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.samples = append(h.samples, liveHeapMB())
			}
		}
	}()
	return h
}

func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// settle collects garbage and reads the live heap, so a peak reached
// after the last automatic collection — every session of a pass still
// resident — is seen.
func (h *heapWatch) settle() {
	runtime.GC()
	h.settled = liveHeapMB()
}

// close stops the sampler and returns the block's live heap in MiB:
// the settled reading or the median sample, whichever is larger. With
// every session of a pass resident the settled reading is the peak; in
// the sweep, where games come and go, the median is the heap the
// running games hold — its peaks are the moments two of the largest
// games happen to overlap, which no two runs share.
func (h *heapWatch) close() float64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.settled, percentile(h.samples, 0.5))
}

// runtimeCost accumulates what the Go runtime spent over the measured
// parts of a phase.
type runtimeCost struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration // user + system time of the whole process
	wall       time.Duration
}

// runtimeMark is a point-in-time reading runtimeCost deltas are taken
// between.
type runtimeMark struct {
	ms  runtime.MemStats
	cpu time.Duration
	at  time.Time
}

func markRuntime() runtimeMark {
	var m runtimeMark
	runtime.ReadMemStats(&m.ms)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	m.at = time.Now()
	return m
}

// since adds the cost from mark m until now.
func (c *runtimeCost) since(m runtimeMark) {
	n := markRuntime()
	c.allocBytes += n.ms.TotalAlloc - m.ms.TotalAlloc
	c.gcCycles += n.ms.NumGC - m.ms.NumGC
	c.gcPause += time.Duration(n.ms.PauseTotalNs - m.ms.PauseTotalNs)
	c.cpu += n.cpu - m.cpu
	c.wall += n.at.Sub(m.at)
}

// report adds the runtime per-layer metrics; ops is the operation count
// allocations are divided by.
func (c runtimeCost) report(r *result, ops int) {
	r.add("runtime.alloc_bytes_per_op", float64(c.allocBytes)/float64(max(ops, 1)), "B", 0)
	r.add("runtime.gc_cycles", float64(c.gcCycles), "count", 0)
	r.add("runtime.gc_pause_ms.total", float64(c.gcPause)/1e6, "ms", 0)
	util := 0.0
	if c.wall > 0 {
		util = c.cpu.Seconds() / (c.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	r.add("runtime.core_utilization", util, "ratio", 0)
}
