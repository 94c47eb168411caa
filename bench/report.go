package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric. The end-to-end set is what an
// untraced run prints in its result line; the per-layer set is what a
// traced run prints. BENCHMARK.json declares the same names and units
// (bench_test.go checks that they agree).
type metricDef struct {
	name, unit string
	e2e        bool
}

var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"ops_per_s", "ops/s", true},
	{"batch_p50_us", "us", true},
	{"batch_p90_us", "us", true},
	{"heap_peak_mb", "MiB", true},

	{"wire.decode_req_ns", "ns", false},
	{"wire.encode_res_ns", "ns", false},
	{"wire.client_decode_ns", "ns", false},
	{"wire.bytes_per_route", "B", false},
	{"serve.fast_ns", "ns", false},
	{"serve.fast_hit_ratio", "ratio", false},
	{"serve.submit_p50_us", "us", false},
	{"serve.submit_p99_us", "us", false},
	{"serve.queue_self_us", "us", false},
	{"serve.queue_depth_max", "count", false},
	{"serve.rejected", "count", false},
	{"serve.coalesced_ratio", "ratio", false},
	{"serve.apply_us", "us", false},
	{"fault_ack_p50_ms", "ms", false},
	{"fault_ack_p95_ms", "ms", false},
	{"journal.commit_p50_ms", "ms", false},
	{"journal.commit_p95_ms", "ms", false},
	{"journal.fsyncs_per_commit", "ratio", false},
	{"core.plan_ns", "ns", false},
	{"core.plan_allocs", "allocs/op", false},
	{"core.detour_ratio", "ratio", false},
	{"core.fallback_ratio", "ratio", false},
	{"core.extra_hops", "hops", false},
	{"cluster.local_p50_us", "us", false},
	{"cluster.forward_p50_us", "us", false},
	{"cluster.forward_p99_us", "us", false},
	{"cluster.forwarded_share", "ratio", false},
	{"cluster.fallbacks", "count", false},
	{"simnet.run_ms", "ms", false},
	{"simnet.cache_hit_ratio", "ratio", false},
	{"simnet.allocs_per_packet", "allocs/op", false},
	{"transport.residual_us", "us", false},
	{"process.cpu_util", "ratio", false},
	{"process.gc_cpu_fraction", "ratio", false},
	{"process.allocs_per_op", "allocs/op", false},
	{"process.goroutines_peak", "count", false},
	{"gen.writer_lag_p95_ms", "ms", false},
	{"trace.overhead_ratio", "ratio", false},
}

// report collects one workload run: its metrics, the attempted and
// failed operation counts, and every wrong answer.
type report struct {
	workload  string
	values    map[string]float64
	attempted int64
	failed    int64
	wrong     int64
	notes     []string // free-form lines printed with a "# " prefix
	mu        sync.Mutex
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrongAnswer records a wrong answer; the first few are kept verbatim.
func (r *report) wrongAnswer(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong++
	if r.wrong <= 5 {
		r.notes = append(r.notes, "WRONG: "+msg)
	}
}

// failure records an operation that failed without a wrong answer.
func (r *report) failure(n int64, msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed < 5 && msg != "" {
		r.notes = append(r.notes, "FAILED: "+msg)
	}
	r.failed += n
}

// tally records one checked reply and reports whether the server
// served it: correct answers, correct refusals and wrong answers were
// served, failures were not.
func (r *report) tally(vd verdict, msg string) bool {
	switch vd {
	case replyFailed:
		r.failure(1, msg)
		return false
	case replyWrong:
		r.wrongAnswer(msg)
	}
	return true
}

// checkServed compares the routes the client saw answered with the
// servers' served-counter delta over the same span.
func (r *report) checkServed(answered, served int64) {
	if answered != served {
		r.wrongAnswer(fmt.Sprintf("client counted %d answered routes, servers served %d", answered, served))
	}
}

// correct reports whether the run saw no wrong answer.
func (r *report) correct() bool { return r.wrong == 0 }

// selected returns the metrics of one list (end-to-end or per-layer),
// every declared name present; a layer the workload does not exercise
// reads 0.
func (r *report) selected(e2e bool) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range metricDefs {
		if d.e2e == e2e {
			out[d.name] = r.values[d.name]
		}
	}
	return out
}

func unitOf(name string) string {
	for _, d := range metricDefs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// print writes the human-readable lines: notes, then one
// "workload metric value unit" line per computed metric.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, n)
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %v %s\n", r.workload, name, r.values[name], unitOf(name))
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%s fail_ratio %v failed/attempted (%d/%d, wrong answers %d)\n", r.workload, ratio, r.failed, r.attempted, r.wrong)
}

// procSampler watches the whole process during a timed window: heap
// and goroutine peaks every 100ms, and CPU, GC and allocation deltas
// across the window. The heap is reported as the median across
// sub-windows of each sub-window's peak, which does not hinge on where
// one collection happened to fall.
type procSampler struct {
	start     time.Time
	ru0       syscall.Rusage
	base      []metrics.Sample
	heapPeaks []float64 // peak heap in use per sub-window
	gorPeak   float64
	queuePeak int
	queue     func() int // optional gauge sampled alongside the heap
	stop      chan struct{}
	done      chan struct{}
}

const (
	heapWindow = time.Second // the heap peak is taken per slice of the window this long

	mHeap   = "/memory/classes/heap/objects:bytes"
	mGor    = "/sched/goroutines:goroutines"
	mAllocs = "/gc/heap/allocs:objects"
	mGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
)

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startSampler(queue func() int) *procSampler {
	p := &procSampler{queue: queue, stop: make(chan struct{}), done: make(chan struct{})}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru0) // cannot fail for RUSAGE_SELF
	p.base = readMetrics(mAllocs, mGCCPU)
	p.start = time.Now()
	p.poll()
	go func() {
		defer close(p.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.poll()
			}
		}
	}()
	return p
}

func (p *procSampler) poll() {
	s := readMetrics(mHeap, mGor)
	heap := sampleValue(s[0])
	k := int(time.Since(p.start) / heapWindow)
	for len(p.heapPeaks) <= k {
		p.heapPeaks = append(p.heapPeaks, heap)
	}
	p.heapPeaks[k] = max(p.heapPeaks[k], heap)
	p.gorPeak = max(p.gorPeak, sampleValue(s[1]))
	if p.queue != nil {
		p.queuePeak = max(p.queuePeak, p.queue())
	}
}

// finish stops sampling and records the process metrics, with
// allocations divided over ops completed operations.
func (p *procSampler) finish(r *report, ops float64) {
	close(p.stop)
	<-p.done
	p.poll()
	wall := time.Since(p.start).Seconds()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := tv(ru.Utime) + tv(ru.Stime) - tv(p.ru0.Utime) - tv(p.ru0.Stime)
	now := readMetrics(mAllocs, mGCCPU)
	r.set("heap_peak_mb", median(p.heapPeaks)/(1<<20))
	r.set("process.goroutines_peak", p.gorPeak)
	r.set("process.cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))))
	if cpu > 0 {
		r.set("process.gc_cpu_fraction", (sampleValue(now[1])-sampleValue(p.base[1]))/cpu)
	}
	if ops > 0 {
		r.set("process.allocs_per_op", (sampleValue(now[0])-sampleValue(p.base[0]))/ops)
	}
	if p.queue != nil {
		r.set("serve.queue_depth_max", float64(p.queuePeak))
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
