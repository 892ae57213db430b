package main

// What the host gave the benchmark while it measured, and the correction
// every timing gets for it.
//
// The benchmark runs on a few vCPUs of a shared machine. Two things there
// change from minute to minute and move every wall-clock number with them:
// the hypervisor deschedules the vCPUs (steal: 0 to 40 % of the busy time,
// in phases of minutes), and the same instructions take more CPU time when
// the neighbours are busy (the server's CPU time per request, on one seed
// and with no steal at all, ranged over 1 : 1.5 within a quarter of an
// hour). Neither is a property of the program under test, so both are
// measured beside the load and taken out: a duration d is reported as
//
//	d * (1 - steal) / slowdown
//
// which is the time d would have taken on a host that never descheduled the
// vCPUs and ran the calibration kernels at their reference speed ("host
// time"). A CPU time is only divided by the slowdown, because a descheduled
// vCPU accrues none. bench/README.md ("Steadiness") has the measurements
// this rests on.

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calibHz is how often the calibration kernels run. Together they take about
// 0.6 ms, so 50 rounds a second cost 3 % of one vCPU.
const calibHz = 50

// The calibration kernels are fixed pieces of work made of what the server's
// own work is made of and of nothing the repository can change (standard
// library only). Each has the CPU time it takes on an undisturbed host of
// the kind the benchmark was written on, which only fixes the unit. The
// host's slow phases do not slow all code alike: allocation follows them
// about one to one with the server, hashing less, plain arithmetic hardly at
// all, and the allocating kernel is at times slowed by this process's own
// heap and nothing else. The slowdown is therefore the geometric mean of the
// three kernels' median slowdowns: no single kernel tracked the server on
// all four workloads, the mean of the three did to within a tenth.
var calibKernels = [...]struct {
	refMS float64
	run   func()
}{
	{0.333, kernelAlloc},
	{0.0667, kernelHash},
	{0.194, kernelBytes},
}

var (
	calibSink int
	calibKeys = func() []string {
		k := make([]string, 2000)
		for i := range k {
			k[i] = strconv.Itoa(i * 7919)
		}
		return k
	}()
	calibMap = map[string]int{}
	calibBuf []byte
)

// kernelAlloc inserts 2000 freshly formatted keys into a fresh map:
// allocation, short strings, hashing.
func kernelAlloc() {
	m := make(map[string]int)
	for i := 0; i < 2000; i++ {
		m[strconv.Itoa(i*7919)] += i
	}
	calibSink += len(m)
}

// kernelHash inserts the same keys into a map that is cleared and reused:
// hashing and memory access without allocation.
func kernelHash() {
	clear(calibMap)
	for i, k := range calibKeys {
		calibMap[k] += i
	}
	calibSink += len(calibMap)
}

// kernelBytes formats 6000 integers into one buffer and hashes the bytes:
// branches and arithmetic in a few cache lines.
func kernelBytes() {
	h := uint64(14695981039346656037)
	for i := 0; i < 6000; i++ {
		calibBuf = strconv.AppendInt(calibBuf[:0], int64(i*7919), 10)
		for _, c := range calibBuf {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	calibSink += int(h & 1)
}

// threadCPU is the CPU time the calling OS thread has used
// (CLOCK_THREAD_CPUTIME_ID). It stands still while the hypervisor has the
// vCPU descheduled, which the wall clock does not.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostMeter runs the calibration kernels on a schedule in a goroutine of its
// own and reads the machine's CPU accounting on request.
type hostMeter struct {
	mu      sync.Mutex
	kernMS  [len(calibKernels)][]float64 // CPU time of every round of each kernel
	lateMS  []float64                    // how late the schedule released each round: the driver's scheduling lag
	stopped chan struct{}
	done    chan struct{}
}

func startHostMeter() *hostMeter {
	h := &hostMeter{stopped: make(chan struct{}), done: make(chan struct{})}
	go h.run()
	return h
}

func (h *hostMeter) run() {
	defer close(h.done)
	// The thread clock is only the kernels' when no other goroutine shares
	// the thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := newPacer(time.Now(), calibHz)
	for {
		select {
		case <-h.stopped:
			return
		default:
		}
		p.next()
		var ms [len(calibKernels)]float64
		for k := range calibKernels {
			c0 := threadCPU()
			calibKernels[k].run()
			ms[k] = float64(threadCPU()-c0) / 1e6
		}
		h.mu.Lock()
		for k := range ms {
			h.kernMS[k] = append(h.kernMS[k], ms[k])
		}
		h.lateMS = append(h.lateMS, p.lateMS[len(p.lateMS)-1])
		h.mu.Unlock()
	}
}

// stop ends the goroutine and waits for it.
func (h *hostMeter) stop() {
	close(h.stopped)
	<-h.done
}

// hostMark is the state of the meter at one moment; two of them bound an
// interval.
type hostMark struct {
	steal, busy float64 // cumulative clock ticks of /proc/stat
	rounds      int     // rounds of the kernels run so far
}

func (h *hostMeter) mark() hostMark {
	steal, busy := procStat()
	h.mu.Lock()
	defer h.mu.Unlock()
	return hostMark{steal, busy, len(h.lateMS)}
}

// procStat reads the first line of /proc/stat: ticks the hypervisor stole,
// and ticks the vCPUs were busy (everything but idle, iowait and steal).
func procStat() (steal, busy float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is inside user.
	for i, f := range strings.Fields(line) {
		v, _ := strconv.ParseFloat(f, 64)
		switch i {
		case 1, 2, 3, 6, 7:
			busy += v
		case 8:
			steal = v
		}
	}
	return steal, busy
}

// hostShare is what the host did over an interval.
type hostShare struct {
	steal    float64   // stolen ticks over stolen plus busy ticks
	slowdown float64   // geometric mean of the kernels' median CPU times over their references
	lateMS   []float64 // the meter's lateness, round by round
}

// between summarises the interval from mark a to mark b. An interval in
// which no round ran is taken at the reference speed.
func (h *hostMeter) between(a, b hostMark) hostShare {
	h.mu.Lock()
	defer h.mu.Unlock()
	var rounds [len(calibKernels)][]float64
	for k := range rounds {
		rounds[k] = h.kernMS[k][a.rounds:b.rounds]
	}
	return hostShare{
		steal:    ratio(b.steal-a.steal, b.steal-a.steal+b.busy-a.busy),
		slowdown: slowdownOf(rounds),
		lateMS:   append([]float64(nil), h.lateMS[a.rounds:b.rounds]...),
	}
}

// slowdownOf is the geometric mean over the kernels of median CPU time over
// reference; 1 when no round ran.
func slowdownOf(rounds [len(calibKernels)][]float64) float64 {
	logSum := 0.0
	for k, ms := range rounds {
		if len(ms) == 0 {
			return 1
		}
		logSum += math.Log(median(ms) / calibKernels[k].refMS)
	}
	return math.Exp(logSum / float64(len(rounds)))
}

// wall is the factor a wall-clock duration is multiplied by.
func (s hostShare) wall() float64 { return (1 - s.steal) / s.slowdown }

// cpu is the factor a CPU time is multiplied by.
func (s hostShare) cpu() float64 { return 1 / s.slowdown }
