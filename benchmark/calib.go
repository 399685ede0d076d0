package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark is judged on is a small virtual machine whose
// hyperthreads share their cores with other tenants. When a neighbour
// is busy the same binary runs a fifth to a half slower for minutes:
// its private-cache hits turn into misses and every time the benchmark
// reports goes up together. The calibrator measures that from inside:
// it times a fixed piece of work that no code of the repository takes
// part in, so what it takes tells how fast the box is right now and
// nothing about the program under test.
//
// The work is the four things the engine's operators spend their time
// on: arithmetic in registers, dependent loads from a cache-resident
// array, dependent loads from an array far larger than any cache, and
// a sequential read scattered over 256 write cursors (a radix-cluster
// pass).

// referenceCalMs is what one calibration takes on the reference box
// (2 vCPU Xeon 2.1 GHz microVM) when its neighbours are quiet. A time
// measured while a calibration took c ms is reported as it would have
// been at the reference speed: multiplied by referenceCalMs/c.
const referenceCalMs = 48.0

const (
	calReps    = 3       // repetitions of each kernel; its time is their median
	calSmall   = 1 << 16 // 256 KiB of uint32: fits a private L2 with room to spare
	calBig     = 1 << 24 // 64 MiB: fits no cache
	calScatter = 1 << 21 // values scattered per repetition
)

// calibrator holds one set of arrays per thread, so that the threads
// share nothing but the memory system.
type calibrator struct {
	threads []*calThread
}

type calThread struct {
	small, big, dst []uint32
	at              uint32 // where the walk over big stands: it never revisits a line while that line is cached
	window          int    // which part of big the next scatter reads
	sink            uint64 // keeps the kernels' results alive
}

// newCalibrator prepares a calibrator that runs on the given number of
// threads at once: generatorThreads(), one per processor the load
// generator uses, whatever the workload, so that every workload is
// put at the speed of the same reference.
func newCalibrator(threads int) *calibrator {
	// A full-period linear congruential step over a power of two: a
	// permutation with one cycle, so following it visits every slot in
	// an order no prefetcher guesses.
	cycle := func(n int) []uint32 {
		a := make([]uint32, n)
		for i := range a {
			a[i] = uint32((i*1664525 + 1013904223) & (n - 1))
		}
		return a
	}
	c := &calibrator{}
	for i := 0; i < threads; i++ {
		c.threads = append(c.threads, &calThread{small: cycle(calSmall), big: cycle(calBig), dst: make([]uint32, calScatter)})
	}
	return c
}

// measure runs the calibration once on every thread at the same time,
// each thread on a processor of its own, and returns the mean of what
// the threads took, in ms.
func (c *calibrator) measure() float64 {
	took := make([]float64, len(c.threads))
	var wg sync.WaitGroup
	for i, t := range c.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pinToCPU(i)()
			took[i] = t.measure()
		}()
	}
	wg.Wait()
	var sum float64
	for _, v := range took {
		sum += v
	}
	return sum / float64(len(took))
}

// measure is the sum over the four kernels of the median of calReps
// timings. The median drops a repetition that an interrupt or a
// descheduled vCPU hit; a neighbour that stays busy shows in all of
// them.
func (t *calThread) measure() float64 {
	var total float64
	for _, kernel := range []func(){t.alu, t.gatherSmall, t.gatherBig, t.scatter} {
		reps := make([]float64, calReps)
		for r := range reps {
			start := time.Now()
			kernel()
			reps[r] = ms(time.Since(start))
		}
		total += median(reps)
	}
	return total
}

func (t *calThread) alu() {
	x := uint64(88172645463325252) | t.sink&1
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t.sink += x
}

func (t *calThread) gatherSmall() { t.sink += uint64(chase(t.small, 1, 1_000_000)) }
func (t *calThread) gatherBig()   { t.at = chase(t.big, t.at, 100_000) }

// chase follows the permutation from i for n steps, each load
// depending on the one before, and returns where it ended.
func chase(a []uint32, i uint32, n int) uint32 {
	for k := 0; k < n; k++ {
		i = a[i]
	}
	return i
}

func (t *calThread) scatter() {
	const parts = 256
	var cursor [parts]int
	size := len(t.dst) / parts
	for p := range cursor {
		cursor[p] = p * size
	}
	// The big array's values are spread evenly enough over the low
	// byte; a cursor that reaches its partition's end wraps to its start.
	t.window = (t.window + 1) % (calBig / calScatter)
	for _, v := range t.big[t.window*calScatter:][:calScatter] {
		p := int(v & (parts - 1))
		if cursor[p] == (p+1)*size {
			cursor[p] = p * size
		}
		t.dst[cursor[p]] = v
		cursor[p]++
	}
	t.sink += uint64(t.dst[0])
}

// cpuMask is a sched_setaffinity mask: room for 1024 processors.
type cpuMask [16]uint64

func affinity(call uintptr, m *cpuMask) bool {
	_, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

// pinToCPU binds the calling goroutine to an operating-system thread
// and that thread to the nth processor it is allowed on (counting
// round), and returns the function that undoes both. The kernel of the
// reference box leaves two busy threads on one processor for up to a
// second while the other idles, which doubles what both take; a
// calibration is shorter than that, so it places its threads itself.
// Where the mask cannot be read or set the thread stays where it is.
func pinToCPU(n int) (undo func()) {
	runtime.LockOSThread()
	var allowed cpuMask
	if !affinity(syscall.SYS_SCHED_GETAFFINITY, &allowed) {
		return runtime.UnlockOSThread
	}
	var cpus []int
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) == 0 {
		return runtime.UnlockOSThread
	}
	cpu := cpus[n%len(cpus)]
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	affinity(syscall.SYS_SCHED_SETAFFINITY, &one)
	return func() {
		affinity(syscall.SYS_SCHED_SETAFFINITY, &allowed)
		runtime.UnlockOSThread()
	}
}
