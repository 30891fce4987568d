package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer's public function. Spans of one instance or call share group.
type span struct {
	name   string
	parent int32 // id of the enclosing span, 0 for a root
	group  int64
	start  int64 // ns since the log's origin
	end    int64
}

// maxSpans bounds the log's memory; later spans are counted as dropped.
const maxSpans = 1 << 20

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one branch per call.
type spanLog struct {
	origin  time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its id (0 when nothing was recorded).
func (l *spanLog) begin(name string, parent int32, group int64) int32 {
	if l == nil {
		return 0
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	l.spans = append(l.spans, span{name: name, parent: parent, group: group, start: time.Since(l.origin).Nanoseconds()})
	return int32(len(l.spans))
}

func (l *spanLog) end(id int32) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].end = time.Since(l.origin).Nanoseconds()
}

// spanStat aggregates the spans of one name. Self time is the spans'
// duration minus the part their direct children cover.
type spanStat struct {
	name    string
	count   int
	totalNS int64
	selfNS  int64
	parent  string // name of the enclosing span, empty for a root
}

func (l *spanLog) stats() []spanStat {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent > 0 {
			child[s.parent-1] += s.end - s.start
		}
	}
	byName := map[string]*spanStat{}
	var order []string
	for i, s := range l.spans {
		st, ok := byName[s.name]
		if !ok {
			st = &spanStat{name: s.name}
			if s.parent > 0 {
				st.parent = l.spans[s.parent-1].name
			}
			byName[s.name] = st
			order = append(order, s.name)
		}
		d := s.end - s.start
		st.count++
		st.totalNS += d
		st.selfNS += d - child[i]
	}
	sort.Strings(order)
	out := make([]spanStat, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// writeJSONL writes the stamp as the first line, then one span per line.
func (l *spanLog) writeJSONL(w io.Writer, st stamp) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(st); err != nil {
		return err
	}
	for i, s := range l.spans {
		_, err := fmt.Fprintf(bw, `{"id":%d,"parent":%d,"group":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i+1, s.parent, s.group, s.name, s.start, s.end)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
