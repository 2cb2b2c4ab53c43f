package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"asymnvm/internal/stats"
)

// metricDef names one reported metric. clock says which clock it reads:
// "host" (real wall time, CPU time, memory), "virt" (the modelled
// RDMA+NVM time on the driving front-end's clock) or "count" (an
// event count, the same on both clocks).
type metricDef struct {
	name, unit, clock string
}

// endToEndDefs are reported by --trace 0, in this order.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "host"},
	{"ops_per_s", "ops/s", "host"},
	{"lat_p50_us", "us", "host"},
	{"lat_p99_us", "us", "host"},
	{"virt_kops", "kops", "virt"},
	{"peak_rss_mb", "MiB", "host"},
	{"nvm_bytes_per_user_byte", "ratio", "count"},
}

// cpuPackages are the packages host.cpu_share.* charges CPU samples to:
// every internal package the benchmark links, "bench" for the
// benchmark's own frames and "runtime" for samples with neither (GC
// workers, the scheduler, syscalls outside any package frame).
var cpuPackages = []string{
	"alloc", "arena", "backend", "clock", "cluster", "core", "ds", "fault",
	"logrec", "mirror", "nvm", "rdma", "ring", "serve", "stats", "trace",
	"txapp", "workload", "bench", "runtime",
}

// layerDefs are reported by --trace 1, in this order. A layer a workload
// bypasses reports 0.
var layerDefs = func() []metricDef {
	d := []metricDef{
		{"check.failed_frac", "ratio", "count"},
		{"check.lat_samples", "count", "count"},
		{"virt_p50_us", "us", "virt"},
		{"virt_p99_us", "us", "virt"},
		{"serve.self_us", "us", "host"},
		{"serve.refused_frac", "ratio", "count"},
		{"ds.get_us", "us", "host"},
		{"ds.get_virt_us", "us", "virt"},
		{"ds.put_us", "us", "host"},
		{"ds.put_virt_us", "us", "virt"},
		{"ds.getmulti_us", "us", "host"},
		{"ds.getmulti_virt_us", "us", "virt"},
		{"ds.putmulti_us", "us", "host"},
		{"ds.putmulti_virt_us", "us", "virt"},
		{"txapp.tx_us", "us", "host"},
		{"txapp.tx_virt_us", "us", "virt"},
		{"core.cache_hit_ratio", "ratio", "count"},
		{"core.cache_evict_per_op", "count/op", "count"},
		{"core.oplog_per_op", "count/op", "count"},
		{"core.commits_per_op", "count/op", "count"},
		{"core.rpc_per_op", "count/op", "count"},
		{"core.trace_coverage", "ratio", "virt"},
	}
	for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
		d = append(d, metricDef{"core.phase." + ph.String() + "_share", "ratio", "virt"})
	}
	d = append(d, []metricDef{
		{"alloc.allocs_per_op", "count/op", "count"},
		{"alloc.frees_per_op", "count/op", "count"},
		{"rdma.verbs_per_op", "count/op", "count"},
		{"rdma.bytes_read_per_op", "B/op", "count"},
		{"rdma.bytes_written_per_user_byte", "ratio", "count"},
		{"rdma.doorbells_per_op", "count/op", "count"},
		{"rdma.avg_queue_depth", "count", "count"},
		{"rdma.overlap_saved_share", "ratio", "virt"},
		{"rdma.fanout_windows_per_op", "count/op", "count"},
		{"rdma.fanout_saved_share", "ratio", "virt"},
		{"rdma.verb_retries", "count", "count"},
		{"backend.busy_share", "ratio", "virt"},
		{"backend.replayed_per_op", "count/op", "count"},
		{"backend.replay_lag_bytes_p50", "B", "count"},
		{"backend.replay_lag_bytes_max", "B", "count"},
		{"backend.checkpoints_per_kop", "count/kop", "count"},
		{"backend.truncated_bytes_per_op", "B/op", "count"},
		{"backend.recovery_virt_us", "us", "virt"},
		{"backend.recovery_replay_ops", "count", "count"},
		{"mirror.replay_lag_bytes_p50", "B", "count"},
		{"mirror.replay_lag_bytes_max", "B", "count"},
		{"mirror.busy_share", "ratio", "virt"},
		{"mirror.sync_ms", "ms", "host"},
		{"nvm.pending_writes_p50", "count", "count"},
		{"nvm.pending_writes_max", "count", "count"},
		{"nvm.device_mb", "MiB", "count"},
		{"cluster.new_s", "s", "host"},
		{"cluster.restart_ms", "ms", "host"},
		{"cluster.reopen_ms", "ms", "host"},
		{"host.cpu_ms_per_kop", "ms/kop", "host"},
		{"host.alloc_bytes_per_op", "B/op", "host"},
		{"host.mallocs_per_op", "count/op", "host"},
		{"host.gc_per_kop", "count/kop", "host"},
		{"host.trace_overhead", "ratio", "host"},
	}...)
	for _, pkg := range cpuPackages {
		d = append(d, metricDef{"host.cpu_share." + pkg, "ratio", "host"})
	}
	return d
}()

// endToEndResult reports one untraced measured phase.
func endToEndResult(m *measurement, setupS, rssMiB float64) result {
	opsPerSec, lat := m.windowed(0.50, 0.99)
	v := map[string]float64{
		"setup_s":                 setupS,
		"ops_per_s":               opsPerSec,
		"lat_p50_us":              lat[0],
		"lat_p99_us":              lat[1],
		"virt_kops":               ratio(float64(m.attempted), m.virt.Seconds()) / 1e3,
		"peak_rss_mb":             rssMiB,
		"nvm_bytes_per_user_byte": ratio(float64(m.nvmBytes), float64(m.userBytes)),
	}
	res := newResult(m, endToEndDefs, v)
	// Printed with the gated metrics but not gated: the virtual
	// percentiles are exact and repeat to the digit on every seed, and a
	// gated metric may not be 0 while failed_frac must be.
	res.notes = append(res.notes,
		noteLine(metricDef{"virt_p50_us", "us", "virt"}, quantileUS(m.virtNS, 0.50)),
		noteLine(metricDef{"virt_p99_us", "us", "virt"}, quantileUS(m.virtNS, 0.99)),
		noteLine(metricDef{"failed_frac", "ratio", "count"}, ratio(float64(m.failed), float64(m.attempted+m.extraOps))),
		fmt.Sprintf("%d ops attempted, %d failed; %d latency samples per clock; host figures are medians over %d windows",
			m.attempted, m.failed, len(m.hostNS), hostWindows))
	return res
}

// ledgerResult builds the per-layer ledger from the instrumented phase a
// and the traced phase b of a --trace 1 run.
func ledgerResult(name string, a, b *measurement) result {
	ops := float64(a.attempted)
	p := a.probe
	fe, bk, rep := p.fe, p.bk, p.rep
	feVirt := float64(p.feVirt.Nanoseconds())
	v := map[string]float64{
		"check.failed_frac":  ratio(float64(a.failed+b.failed), float64(a.attempted+a.extraOps+b.attempted+b.extraOps)),
		"check.lat_samples":  float64(len(a.hostNS)),
		"virt_p50_us":        quantileUS(a.virtNS, 0.50),
		"virt_p99_us":        quantileUS(a.virtNS, 0.99),
		"serve.refused_frac": ratio(float64(fe.ServeRejected+fe.ServeBreaker+fe.ServeExpired+fe.DeadlineMiss), ops),

		"core.cache_hit_ratio":    fe.HitRatio(),
		"core.cache_evict_per_op": ratio(float64(fe.CacheEvict), ops),
		"core.oplog_per_op":       ratio(float64(fe.OpLogs), ops),
		"core.commits_per_op":     ratio(float64(fe.TxCommits), ops),
		"core.rpc_per_op":         ratio(float64(fe.RPCCalls), ops),
		"core.trace_coverage":     ratio(float64(b.probe.traceSelf), float64(b.probe.traceElapsed)),

		// Both allocator tiers: front-end slab allocations and back-end
		// block allocations served over RPC.
		"alloc.allocs_per_op": ratio(float64(fe.Allocs+bk.Allocs), ops),
		"alloc.frees_per_op":  ratio(float64(fe.Frees+bk.Frees), ops),

		"rdma.verbs_per_op":                ratio(float64(fe.RDMAVerbs()), ops),
		"rdma.bytes_read_per_op":           ratio(float64(fe.BytesRead), ops),
		"rdma.bytes_written_per_user_byte": ratio(float64(fe.BytesWrite), a.layer["user_bytes_written"]),
		"rdma.doorbells_per_op":            ratio(float64(fe.DoorbellGroups), ops),
		"rdma.avg_queue_depth":             fe.AvgQueueDepth(),
		"rdma.overlap_saved_share":         ratio(float64(fe.OverlapSavedNS), feVirt+float64(fe.OverlapSavedNS)),
		"rdma.fanout_windows_per_op":       ratio(float64(fe.FanoutWindows), ops),
		"rdma.fanout_saved_share":          ratio(float64(fe.FanoutSavedNS), feVirt+float64(fe.FanoutSavedNS)),
		"rdma.verb_retries":                float64(fe.VerbRetries),

		"backend.busy_share":             ratio(float64(bk.BusyNS), feVirt*float64(p.nbk)),
		"backend.replayed_per_op":        ratio(float64(bk.TxReplayed), ops),
		"backend.replay_lag_bytes_p50":   quantile(p.bkLag, 0.5),
		"backend.replay_lag_bytes_max":   maxOf(p.bkLag),
		"backend.checkpoints_per_kop":    ratio(float64(bk.Checkpoints), ops/1e3),
		"backend.truncated_bytes_per_op": ratio(float64(bk.TruncatedBytes), ops),

		"mirror.replay_lag_bytes_p50": quantile(p.repLag, 0.5),
		"mirror.replay_lag_bytes_max": maxOf(p.repLag),
		"mirror.busy_share":           ratio(float64(rep.BusyNS), feVirt*float64(p.nrep)),

		"nvm.pending_writes_p50": quantile(p.pending, 0.5),
		"nvm.pending_writes_max": maxOf(p.pending),

		"host.cpu_ms_per_kop":     ratio(float64(a.host.cpu)/1e6, ops/1e3),
		"host.alloc_bytes_per_op": ratio(float64(a.host.alloc), ops),
		"host.mallocs_per_op":     ratio(float64(a.host.mallocs), ops),
		"host.gc_per_kop":         ratio(float64(a.host.gcs), ops/1e3),
		"host.trace_overhead":     ratio(b.opsPerSec(), a.opsPerSec()),
	}
	tb := b.probe
	tbVirt := float64(tb.feVirt.Nanoseconds())
	for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
		v["core.phase."+ph.String()+"_share"] = ratio(float64(tb.phases[ph]), tbVirt)
	}
	var cpuTotal float64
	for _, ns := range a.cpuByPkg {
		cpuTotal += ns
	}
	for _, pkg := range cpuPackages {
		v["host.cpu_share."+pkg] = ratio(a.cpuByPkg[pkg], cpuTotal)
	}
	for k, x := range a.layer {
		if _, ok := v[k]; !ok {
			v[k] = x
		}
	}
	res := newResult(a, layerDefs, v)
	res.Attempted += b.attempted + b.extraOps
	res.Failed += b.failed
	res.Correct = res.Failed == 0
	res.notes = append([]string{fmt.Sprintf("%s per-layer ledger: base op = one call into the workload's top layer; %d ops instrumented, %d ops traced (%.0f ops/s untraced, %.0f ops/s traced)",
		name, a.attempted, b.attempted, a.opsPerSec(), b.opsPerSec())}, res.notes...)
	return res
}

// newResult keeps exactly the metrics in defs (absent ones are 0) and
// renders one note line per metric with its unit and clock.
func newResult(m *measurement, defs []metricDef, v map[string]float64) result {
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted + m.extraOps,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		x := v[d.name]
		res.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
		res.notes = append(res.notes, noteLine(d, x))
	}
	return res
}

func noteLine(d metricDef, x float64) string {
	return fmt.Sprintf("%-34s %14.6g %-9s [%s]", d.name, x, d.unit, d.clock)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
