package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share Req; Parent
// is the index of the enclosing span within the request, -1 for its
// root.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// budgetRow is one name's share of the roots' wall time and the number
// of spans that make it up.
type budgetRow struct {
	Dur float64 // ns
	N   int
}

// spanStats accumulates one span name's durations and self times.
type spanStats struct {
	N       int
	Self    float64   // total self time, ns
	Dur     float64   // total duration, ns
	Samples []float64 // durations in ns, the first maxSamples
}

const maxSamples = 1 << 18

// tracer records the spans of one goroutine's requests in memory. A
// nil *tracer records nothing, which is how the same code path runs
// untraced to measure the tracer's own cost.
type tracer struct {
	base  time.Time
	req   uint64
	cur   []span
	kept  []span // spans retained for the trace file, at most keep
	keep  int
	stats map[string]*spanStats
	// budget splits the roots' wall time: the root's self time plus the
	// full duration of each direct child, by name. Direct children of a
	// root run one after another, so the rows add up to the roots' total.
	budget map[string]*budgetRow
	units  int // routes (or other units) the finished roots covered

	kids [][]int    // scratch: children of each span
	ivs  [][2]int64 // scratch: child intervals being merged
}

func newTracer(base time.Time, keep int) *tracer {
	return &tracer{base: base, keep: keep, stats: make(map[string]*spanStats), budget: make(map[string]*budgetRow)}
}

// now is the tracer's clock: ns since its base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under parent (-1 for the request root) and returns
// its id within the request.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.cur = append(t.cur, span{Name: name, Req: t.req, ID: len(t.cur), Parent: parent, Start: t.now()})
	return len(t.cur) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.cur[id].End = t.now()
}

// add records a span timed elsewhere, e.g. on another goroutine.
func (t *tracer) add(name string, parent int, start, end int64) {
	if t == nil {
		return
	}
	t.cur = append(t.cur, span{Name: name, Req: t.req, ID: len(t.cur), Parent: parent, Start: start, End: end})
}

// finish closes the request, which covered units routes. Every span's
// self time — its duration minus the part of it its children cover,
// overlapping children counted once — is folded into the per-name
// totals, and the spans are kept for the file while room remains.
func (t *tracer) finish(units int) {
	if t == nil {
		return
	}
	if cap(t.kids) < len(t.cur) {
		t.kids = make([][]int, len(t.cur))
	}
	t.kids = t.kids[:len(t.cur)]
	for i := range t.kids {
		t.kids[i] = t.kids[i][:0]
	}
	for i, s := range t.cur {
		if s.Parent >= 0 {
			t.kids[s.Parent] = append(t.kids[s.Parent], i)
		}
	}
	for i := range t.cur {
		s := &t.cur[i]
		dur := float64(s.End - s.Start)
		self := dur - float64(t.covered(t.kids[i]))
		st := t.stats[s.Name]
		if st == nil {
			st = &spanStats{}
			t.stats[s.Name] = st
		}
		st.N++
		st.Self += self
		st.Dur += dur
		if len(st.Samples) < maxSamples {
			st.Samples = append(st.Samples, dur)
		}
		if s.Parent < 0 || t.cur[s.Parent].Parent < 0 {
			row := t.budget[s.Name]
			if row == nil {
				row = &budgetRow{}
				t.budget[s.Name] = row
			}
			if s.Parent < 0 {
				row.Dur += self
			} else {
				row.Dur += dur
			}
			row.N++
		}
	}
	if len(t.kept)+len(t.cur) <= t.keep {
		t.kept = append(t.kept, t.cur...)
	}
	t.cur = t.cur[:0]
	t.req++
	t.units += units
}

// covered returns the length of the union of the given spans' intervals.
func (t *tracer) covered(ids []int) int64 {
	if len(ids) == 0 {
		return 0
	}
	t.ivs = t.ivs[:0]
	ordered := true
	for _, id := range ids {
		iv := [2]int64{t.cur[id].Start, t.cur[id].End}
		ordered = ordered && (len(t.ivs) == 0 || t.ivs[len(t.ivs)-1][0] <= iv[0])
		t.ivs = append(t.ivs, iv)
	}
	if !ordered {
		sort.Slice(t.ivs, func(a, b int) bool { return t.ivs[a][0] < t.ivs[b][0] })
	}
	var total, end int64
	first := true
	for _, iv := range t.ivs {
		switch {
		case first || iv[0] >= end:
			total += iv[1] - iv[0]
			end, first = iv[1], false
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// spanCost measures what one span adds to the interval it times: the
// duration the tracer records for a span around no work at all.
func spanCost() float64 {
	t := newTracer(time.Now(), 0)
	for i := 0; i < 1<<16; i++ {
		root := t.begin("root", -1)
		t.end(t.begin("empty", root))
		t.end(root)
		t.finish(1)
	}
	return t.stats["empty"].Dur / float64(t.stats["empty"].N)
}

// mergeStats combines the per-name totals and budgets of several
// tracers; it skips nil tracers.
func mergeStats(ts []*tracer) (map[string]*spanStats, map[string]*budgetRow, int) {
	out := make(map[string]*spanStats)
	budget := make(map[string]*budgetRow)
	units := 0
	for _, t := range ts {
		if t == nil {
			continue
		}
		for name, st := range t.stats {
			m := out[name]
			if m == nil {
				m = &spanStats{}
				out[name] = m
			}
			m.N += st.N
			m.Self += st.Self
			m.Dur += st.Dur
			m.Samples = append(m.Samples, st.Samples...)
		}
		for name, v := range t.budget {
			b := budget[name]
			if b == nil {
				b = &budgetRow{}
				budget[name] = b
			}
			b.Dur += v.Dur
			b.N += v.N
		}
		units += t.units
	}
	return out, budget, units
}

// meanSelf returns the mean self time of one span name in ns.
func meanSelf(stats map[string]*spanStats, name string) float64 {
	st := stats[name]
	if st == nil || st.N == 0 {
		return 0
	}
	return st.Self / float64(st.N)
}

// writeSpans writes every kept span to path as one JSON document.
// Request ids are made unique across tracers by a per-tracer prefix.
func writeSpans(path string, ts []*tracer) error {
	type file struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}
	f := file{Note: "spans recorded by the benchmark around calls into each layer; times in ns since the traced pass began; req is tracer<<32|request"}
	for i, t := range ts {
		if t == nil {
			continue
		}
		for _, s := range t.kept {
			s.Req |= uint64(i) << 32
			f.Spans = append(f.Spans, s)
		}
	}
	sort.SliceStable(f.Spans, func(a, b int) bool { return f.Spans[a].Start < f.Spans[b].Start })
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
