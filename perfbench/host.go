package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts by up to 1.6x within minutes on a shared VM
// (README.md, "Host drift"), far more than the changes the ledger must
// resolve. hostClock measures that drift from inside the run: between
// passes, outside the timed window, it times a fixed suite of kernels
// that use no daesim code, so no change to daesim moves them. Their
// times rise and fall with the host's, and the end-to-end times are
// divided by the host index they give.

// kernel is one calibration kernel. nominal is its median time in
// seconds on the reference host, so an index of 1 means that speed.
type kernel struct {
	name    string
	nominal float64
	run     func(*calibBuffers)
}

// calibBuffers are the memory kernels' buffers. They are mapped outside
// the Go heap for one calibration and unmapped after it, so they never
// count in a pass's heap or resident set.
type calibBuffers struct {
	chase    []uint64 // random dependent loads, 64 MiB
	src, dst []byte   // bulk copies, 32 MiB each
}

// kernels span the resources a daesim pass uses: dependent integer
// arithmetic, DRAM latency, memory bandwidth and garbage-collected
// allocation. No single kernel tracks the drift of both a paper and a
// fleet pass; their geometric mean does. Map-, sort- and JSON-heavy
// kernels were tried and left out: their run medians varied by up to
// 1.7x between runs in which these four agreed within 15%.
var kernels = []kernel{
	{"alu", 0.040, func(*calibBuffers) {
		x := uint64(1)
		for i := 0; i < 30_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		calibSink += x
	}},
	{"dram", 0.040, func(b *calibBuffers) {
		mask := uint64(len(b.chase) - 1)
		idx := uint64(0)
		for i := 0; i < 300_000; i++ {
			idx = b.chase[idx&mask] + uint64(i)
		}
		calibSink += idx
	}},
	{"bandwidth", 0.020, func(b *calibBuffers) {
		for r := 0; r < 4; r++ {
			copy(b.dst, b.src)
			b.src[r]++
		}
	}},
	{"alloc", 0.012, func(*calibBuffers) {
		type obj struct {
			next *obj
			v    [6]uint64
		}
		keep := make([]*obj, 0, 8)
		for r := 0; r < 8; r++ {
			var head *obj
			for i := 0; i < 40_000; i++ {
				head = &obj{next: head}
			}
			keep = append(keep, head)
		}
		calibSink += uint64(len(keep))
	}},
}

// calibSink keeps the kernels' results live.
var calibSink uint64

// hostClock collects kernel times over a run.
type hostClock struct {
	times [][]float64 // per kernel, seconds
}

// calibrationEvery is the pass time between two calibrations: often
// enough for a median over a run, rare enough to add only ~20% to it.
const calibrationEvery = 2 * time.Second

// sample times every kernel twice, on a freshly collected heap so that
// the last pass's garbage does not land in the allocating kernels.
func (h *hostClock) sample() error {
	runtime.GC()
	b, release, err := mapCalibBuffers()
	if err != nil {
		return err
	}
	defer release()
	if h.times == nil {
		h.times = make([][]float64, len(kernels))
	}
	for range 2 {
		for i, k := range kernels {
			t0 := time.Now()
			k.run(b)
			h.times[i] = append(h.times[i], time.Since(t0).Seconds())
		}
	}
	return nil
}

// index is the geometric mean over the kernels of their median time
// relative to nominal: above 1, the host ran slower than the reference.
func (h *hostClock) index() float64 {
	sum := 0.0
	for i, k := range kernels {
		sum += math.Log(median(h.times[i]) / k.nominal)
	}
	return math.Exp(sum / float64(len(kernels)))
}

// String lists each kernel's median in milliseconds.
func (h *hostClock) String() string {
	parts := make([]string, len(kernels))
	for i, k := range kernels {
		parts[i] = fmt.Sprintf("%s=%.2fms", k.name, 1e3*median(h.times[i]))
	}
	return fmt.Sprintf("%d runs: %s", len(h.times[0]), strings.Join(parts, " "))
}

func mapCalibBuffers() (*calibBuffers, func(), error) {
	const chaseBytes, copyBytes = 64 << 20, 32 << 20
	mem, err := syscall.Mmap(-1, 0, chaseBytes+2*copyBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mapping calibration buffers: %w", err)
	}
	b := &calibBuffers{
		chase: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), chaseBytes/8),
		src:   mem[chaseBytes : chaseBytes+copyBytes],
		dst:   mem[chaseBytes+copyBytes:],
	}
	x := uint64(88172645463325252)
	for i := range b.chase {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b.chase[i] = x
	}
	for i := range b.src {
		b.src[i] = byte(i)
	}
	clear(b.dst) // fault the pages in before the timed copies
	return b, func() { syscall.Munmap(mem) }, nil
}
