package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval the runner recorded around a call it
// made: what ran, for which request, inside which other span.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`    // request index within its pass
	Pass   int    `json:"pass"`   // traced pass number
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
	pass  int
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (pass it to end, and as the
// parent of spans nested inside it).
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Pass: t.pass, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// child adds a finished span of the given duration inside parent,
// starting at offset ns after the parent's start. It carries a
// duration the called layer reported itself (SearchStats phase
// times, the server's micros field).
func (t *tracer) child(name string, parent int, offset, dur int64) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Req: p.Req, Pass: p.Pass, Parent: parent, Start: p.Start + offset, End: p.Start + offset + dur})
}

// layerTime is one layer's share of the traced passes.
type layerTime struct {
	Name   string
	Spans  int
	SelfNs int64 // duration minus the part covered by child spans
}

// selfTimes aggregates self time per span name, largest first.
func (t *tracer) selfTimes() []layerTime {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Spans++
		lt.SelfNs += max(0, s.End-s.Start-covered[i])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// report prints self time per layer and writes every span to path.
func (t *tracer) report(w io.Writer, workload, path string) error {
	layers := t.selfTimes()
	var total int64
	for _, l := range layers {
		total += l.SelfNs
	}
	for _, l := range layers {
		fmt.Fprintf(w, "trace  %-20s spans=%-7d self=%10.3f ms  %5.1f %%\n", l.Name, l.Spans, float64(l.SelfNs)/1e6, 100*float64(l.SelfNs)/float64(max(total, 1)))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"workload": workload, "spans": t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
