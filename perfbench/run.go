package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"asymnvm/internal/trace"
)

// runConfig is what one process run hands to a workload.
type runConfig struct {
	seed   int64
	budget time.Duration // measured phase length (host wall time)
	ops    int           // > 0: run exactly this many ops instead of budget

	// tracer is the virtual tracer attached through cluster.Config.Tracer
	// and spans the benchmark-side span log; both nil outside the traced
	// phase of a --trace 1 run.
	tracer *trace.Tracer
	spans  *spanLog
	// ledger enables the per-layer probes: lag and window samplers, the
	// direct-execution twin, the CPU profile.
	ledger bool

	// corruptModel makes the workload corrupt its model entry for the
	// first written key it checks, so the output checks must fail. Only
	// tests set it.
	corruptModel bool

	outDir  string
	spanTag string
}

// over reports whether the measured phase is over after n ops and
// elapsed measured wall time.
func (c runConfig) over(n int, elapsed time.Duration) bool {
	if c.ops > 0 {
		return n >= c.ops
	}
	return elapsed >= c.budget
}

// workloadDef is one named traffic mix.
type workloadDef struct {
	name string
	// setupRepeats is how many times an end-to-end run builds the
	// deployment to take the median set-up time.
	setupRepeats int
	setup        func(cfg runConfig) (instance, error)
}

// instance is one built deployment of a workload.
type instance interface {
	// measure runs the measured phase and checks every answer.
	measure(cfg runConfig) (*measurement, error)
	close()
}

var workloads = map[string]workloadDef{
	"serve-hot":     {name: "serve-hot", setupRepeats: 5, setup: setupServeHot},
	"multiget-cold": {name: "multiget-cold", setupRepeats: 3, setup: setupMultigetCold},
	"churn-recover": {name: "churn-recover", setupRepeats: 5, setup: setupChurnRecover},
}

// measurement is what a measured phase produced.
type measurement struct {
	attempted, failed int
	// extraOps are checked ops outside the measured ones (the direct
	// twin); they count toward the result's attempted total only.
	extraOps       int
	wall           time.Duration // host wall time the ops_per_s figure covers
	virt           time.Duration // driving front-end virtual time over the ops
	hostNS, virtNS []int64       // per-op latency samples, one per op
	// doneAt is each op's completion time, as measured wall time since
	// the phase began; it assigns ops to the windows behind the host
	// throughput and latency medians.
	doneAt []time.Duration

	nvmBytes  int64 // allocated NVM blocks × block size, all primaries
	userBytes int64 // live user bytes (keys + values) at the end

	probe *probe
	host  hostDelta
	// layer holds workload-specific per-layer figures (call latencies,
	// restart times, sync times); absent names report 0.
	layer map[string]float64
	// cpuByPkg is self CPU time per internal package (ledger runs only).
	cpuByPkg map[string]float64
}

// record books one measured op.
func (m *measurement) record(hostNS, virtNS int64, doneAt time.Duration) {
	m.hostNS = append(m.hostNS, hostNS)
	m.virtNS = append(m.virtNS, virtNS)
	m.doneAt = append(m.doneAt, doneAt)
	m.attempted++
}

func (m *measurement) opsPerSec() float64 {
	if m.wall <= 0 {
		return 0
	}
	return float64(m.attempted) / m.wall.Seconds()
}

// hostWindows is how many equal slices of the measured wall time the
// host figures are computed over. The host shares its CPUs with other
// tenants (steal time of 10% and more in bursts), so each host figure is
// the median over the windows: a burst of stolen time spoils a window or
// two, not the run.
const hostWindows = 10

// windowed returns the median over hostWindows of the window throughput
// and of the window latency quantiles q (µs).
func (m *measurement) windowed(qs ...float64) (opsPerSec float64, lat []float64) {
	width := m.wall / hostWindows
	if width <= 0 {
		return m.opsPerSec(), make([]float64, len(qs))
	}
	var win [hostWindows][]int64
	for i, at := range m.doneAt {
		w := min(int(at/width), hostWindows-1)
		win[w] = append(win[w], m.hostNS[i])
	}
	rates := make([]float64, 0, hostWindows)
	perQ := make([][]float64, len(qs))
	for _, ns := range win {
		rates = append(rates, float64(len(ns))/width.Seconds())
		if len(ns) == 0 {
			continue
		}
		for j, q := range qs {
			perQ[j] = append(perQ[j], quantileUS(ns, q))
		}
	}
	lat = make([]float64, len(qs))
	for j := range qs {
		lat[j] = quantile(perQ[j], 0.5)
	}
	return quantile(rates, 0.5), lat
}

// endToEndRun builds the deployment setupRepeats times (keeping the
// last), then measures once with all tracing off.
func endToEndRun(wl workloadDef, cfg runConfig) (result, error) {
	var setups []float64
	var inst instance
	for i := 0; i < wl.setupRepeats; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		inst, err = wl.setup(cfg)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m, err := inst.measure(cfg)
	inst.close()
	if err != nil {
		return result{}, err
	}
	return endToEndResult(m, quantile(setups, 0.5), peakRSSMiB()), nil
}

// tracedRun makes two measured phases on fresh deployments: an
// instrumented one without tracing (counters, samplers, CPU profile,
// direct twin) and a traced one (virtual tracer plus benchmark spans).
// The ratio of their throughputs is the tracing overhead.
func tracedRun(wl workloadDef, cfg runConfig) (result, error) {
	plain := cfg
	plain.ledger = true
	a, err := measureOnce(wl, plain, true)
	if err != nil {
		return result{}, fmt.Errorf("instrumented phase: %w", err)
	}
	releaseMemory()
	traced := cfg
	traced.tracer = trace.New()
	traced.spans = newSpanLog()
	b, err := measureOnce(wl, traced, false)
	if err != nil {
		return result{}, fmt.Errorf("traced phase: %w", err)
	}
	res := ledgerResult(wl.name, a, b)
	path, err := writeSpans(cfg.outDir, cfg.spanTag, traced.spans)
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	res.notes = append(res.notes, traced.spans.summary()...)
	res.notes = append(res.notes, fmt.Sprintf("spans written to %s", path))
	return res, nil
}

// measureOnce sets up and measures one deployment, optionally under the
// CPU profiler.
func measureOnce(wl workloadDef, cfg runConfig, profile bool) (*measurement, error) {
	inst, err := wl.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	m, err := inst.measure(cfg)
	if profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	if profile {
		byPkg, err := cpuByPackage(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("reading CPU profile: %w", err)
		}
		m.cpuByPkg = byPkg
	}
	return m, nil
}

// releaseMemory returns a torn-down deployment's heap to the OS so the
// next one starts from the same footprint.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// quantile is the linear-interpolation quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

// quantileUS converts nanosecond samples to µs and takes a quantile.
func quantileUS(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e3
	}
	return quantile(xs, q)
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// callSamples collects per-call host and virtual latencies by layer call
// name ("ds.get", "txapp.tx", ...).
type callSamples map[string]*[2][]int64

func (c callSamples) add(name string, hostNS, virtNS int64) {
	s := c[name]
	if s == nil {
		s = new([2][]int64)
		c[name] = s
	}
	s[0] = append(s[0], hostNS)
	s[1] = append(s[1], virtNS)
}

// report stores each call's median as <name>_us (host) and
// <name>_virt_us (virtual).
func (c callSamples) report(layer map[string]float64) {
	for name, s := range c {
		layer[name+"_us"] = quantileUS(s[0], 0.5)
		layer[name+"_virt_us"] = quantileUS(s[1], 0.5)
	}
}
