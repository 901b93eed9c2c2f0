package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans the benchmark times
// itself use the "bench" clock; spans imported from a layer's own hook
// keep that hook's clock, and start times compare only within one clock.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 for roots
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Clock   string `json:"clock"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a bench-clock span and returns its id (0 when untraced).
func (t *tracer) add(parent int64, layer, name string, start time.Time, dur time.Duration) int64 {
	if t == nil {
		return 0
	}
	return t.addRaw(parent, layer, name, "bench", start.Sub(t.epoch).Nanoseconds(), dur.Nanoseconds())
}

func (t *tracer) addRaw(parent int64, layer, name, clock string, startNS, durNS int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Clock: clock, StartNS: startNS, DurNS: durNS})
	return id
}

// benchNS converts a wall time to the bench clock.
func (t *tracer) benchNS(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// containing returns the id of the latest recorded bench-clock span
// that match accepts and whose interval contains at (0 if none). It
// links spans recorded on another goroutine or by a layer's own hook to
// the call they served.
func (t *tracer) containing(match func(span) bool, at int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		if s.Clock == "bench" && s.StartNS <= at && at <= s.StartNS+s.DurNS && match(s) {
			return s.ID
		}
	}
	return 0
}

func named(name string) func(span) bool { return func(s span) bool { return s.Name == name } }

// layerSelf is one row of the per-layer self-time summary.
type layerSelf struct {
	Layer  string  `json:"layer"`
	Name   string  `json:"name,omitempty"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
	WallMS float64 `json:"wall_ms"`
}

// selfTimes computes each span's self time: its duration minus the part
// of it its children cover. Children are merged per clock (intervals
// within one clock are unioned, so parallel children are not counted
// twice); different clocks cannot be aligned and are subtracted whole.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		byClock := map[string][][2]int64{}
		for _, c := range kids[s.ID] {
			byClock[c.Clock] = append(byClock[c.Clock], [2]int64{c.StartNS, c.StartNS + c.DurNS})
		}
		covered := int64(0)
		for _, iv := range byClock {
			covered += unionLen(iv)
		}
		self[s.ID] = max(s.DurNS-covered, 0)
	}
	return self
}

func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] > end:
			total += x[1] - x[0]
			end, first = x[1], false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// summary folds self times per layer and per layer+name.
func summary(spans []span) (byLayer, byName []layerSelf) {
	self := selfTimes(spans)
	type key struct{ layer, name string }
	l, n := map[string]*layerSelf{}, map[key]*layerSelf{}
	for _, s := range spans {
		if l[s.Layer] == nil {
			l[s.Layer] = &layerSelf{Layer: s.Layer}
		}
		k := key{s.Layer, s.Name}
		if n[k] == nil {
			n[k] = &layerSelf{Layer: s.Layer, Name: s.Name}
		}
		for _, row := range []*layerSelf{l[s.Layer], n[k]} {
			row.Spans++
			row.SelfMS += float64(self[s.ID]) / 1e6
			row.WallMS += float64(s.DurNS) / 1e6
		}
	}
	for _, row := range l {
		byLayer = append(byLayer, *row)
	}
	for _, row := range n {
		byName = append(byName, *row)
	}
	order := func(rows []layerSelf) {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].SelfMS != rows[j].SelfMS {
				return rows[i].SelfMS > rows[j].SelfMS
			}
			return rows[i].Layer+rows[i].Name < rows[j].Layer+rows[j].Name
		})
	}
	order(byLayer)
	order(byName)
	return byLayer, byName
}

// write dumps the spans as JSON lines and the self-time summary as JSON.
func (t *tracer) write(dir, tag string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	f, err := os.Create(filepath.Join(dir, tag+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	byLayer, byName := summary(spans)
	b, err := json.MarshalIndent(map[string]any{"layers": byLayer, "names": byName}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tag+".summary.json"), b, 0o644)
}
