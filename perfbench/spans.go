package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"strings"
	"time"
)

// Spans: the traced run records one span per call into a layer's
// public functions — name, start, end and parent — in memory, and
// writes them out when the run ends. A span's layer is its name up to
// the first dot ("coproc.run" → coproc).
//
// Each goroutine context owns a spanBuf (a campaign worker, a
// reduction shard, the dispatcher, the main goroutine), so recording
// takes no lock; the campaign engine never runs two callbacks of the
// same worker or shard at once.

type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	// parent indexes the enclosing span in the same buffer; -1 for a
	// top-level span, whose parent is the buffer's owner span.
	parent int32
}

type spanBuf struct {
	label string
	// owner is the buffer and index of the span top-level spans here
	// belong to (-1: none).
	ownerBuf, owner int32
	spans           []span
	open            []int32
	epoch           time.Time
}

// begin opens a span nested in the innermost open span. A nil buffer
// records nothing, so untraced code paths can share the call sites.
func (b *spanBuf) begin(name string) {
	if b == nil {
		return
	}
	parent := int32(-1)
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
	}
	b.open = append(b.open, int32(len(b.spans)))
	b.spans = append(b.spans, span{name: name, start: int64(time.Since(b.epoch)), parent: parent})
}

// end closes the innermost open span.
func (b *spanBuf) end() {
	if b == nil {
		return
	}
	n := len(b.open) - 1
	b.spans[b.open[n]].end = int64(time.Since(b.epoch))
	b.open = b.open[:n]
}

// tracer owns every span buffer of one traced run.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new span buffer whose top-level spans are children of
// the span currently open innermost in parent (nil: no parent).
func (t *tracer) buf(label string, parent *spanBuf) *spanBuf {
	b := &spanBuf{label: label, ownerBuf: -1, owner: -1, epoch: t.epoch}
	if parent != nil {
		for i, pb := range t.bufs {
			if pb == parent && len(parent.open) > 0 {
				b.ownerBuf, b.owner = int32(i), parent.open[len(parent.open)-1]
			}
		}
	}
	t.bufs = append(t.bufs, b)
	return b
}

// layerTimes is self time per layer, in ns summed over goroutines.
type layerTimes map[string]float64

// selfTimes computes each span's self time — its duration minus the
// durations of its direct children, across buffers too — and sums it
// per layer. Spans named in concurrent have children running on other
// goroutines in parallel; they count as capacity (duration × workers)
// instead, both for their own self time and in their parent's, so the
// engine's own time includes the time its workers sat idle and the
// layer totals sum to the root's duration × workers.
func (t *tracer) selfTimes(concurrent map[string]int) layerTimes {
	childDur := make([][]int64, len(t.bufs))
	for i, b := range t.bufs {
		childDur[i] = make([]int64, len(b.spans))
	}
	for i, b := range t.bufs {
		for _, s := range b.spans {
			d := s.end - s.start
			if w, ok := concurrent[s.name]; ok {
				d *= int64(w)
			}
			switch {
			case s.parent >= 0:
				childDur[i][s.parent] += d
			case b.owner >= 0:
				childDur[b.ownerBuf][b.owner] += d
			}
		}
	}
	out := layerTimes{}
	for i, b := range t.bufs {
		for j, s := range b.spans {
			d := float64(s.end - s.start)
			if w, ok := concurrent[s.name]; ok {
				d *= float64(w)
			}
			out[layerOf(s.name)] += d - float64(childDur[i][j])
		}
	}
	return out
}

// stats aggregates count and total duration (ns) per span name.
func (t *tracer) stats() map[string]spanStat {
	out := map[string]spanStat{}
	for _, b := range t.bufs {
		for _, s := range b.spans {
			st := out[s.name]
			st.count++
			st.totalNS += float64(s.end - s.start)
			out[s.name] = st
		}
	}
	return out
}

type spanStat struct {
	count   int
	totalNS float64
}

// perCall is the mean duration of a span name in the given unit (ns).
func (s spanStat) perCall(unit float64) float64 {
	if s.count == 0 {
		return 0
	}
	return s.totalNS / float64(s.count) / unit
}

func layerOf(name string) string {
	if l, _, ok := strings.Cut(name, "."); ok {
		return l
	}
	return name
}

// write stores every span as gzipped CSV: buffer, id, parent id,
// name, start ns, end ns. Parent ids are global "buffer:index" ids.
func (t *tracer) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "buffer,id,parent,name,start_ns,end_ns")
	n := 0
	for i, b := range t.bufs {
		for j, s := range b.spans {
			parent := "-"
			switch {
			case s.parent >= 0:
				parent = fmt.Sprintf("%d:%d", i, s.parent)
			case b.owner >= 0:
				parent = fmt.Sprintf("%d:%d", b.ownerBuf, b.owner)
			}
			fmt.Fprintf(bw, "%s,%d:%d,%s,%s,%d,%d\n", b.label, i, j, parent, s.name, s.start, s.end)
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
