package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call from the benchmark into an exported function of a
// layer, on both clocks. Spans of one run share the workload id; Parent is
// the span whose call caused this one (0 for the run's root).
type span struct {
	ID          int    `json:"id"`
	Parent      int    `json:"parent"`
	Workload    string `json:"workload"`
	Layer       string `json:"layer"`
	Name        string `json:"name"`
	HostStartNs int64  `json:"host_start_ns"`
	HostEndNs   int64  `json:"host_end_ns"`
	VirtStartNs int64  `json:"virt_start_ns"`
	VirtEndNs   int64  `json:"virt_end_ns"`
}

// spanLog keeps a run's spans in memory; they are written once, at exit.
// A nil *spanLog records nothing, which is how the timed (untraced) runs
// stay free of the bookkeeping.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// open starts a span under parent (an id from an earlier open; 0 = root
// level) at virtual time virt and returns its id.
func (l *spanLog) open(parent int, layer, name string, virt time.Duration) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Workload: l.workload, Layer: layer, Name: name,
		HostStartNs: time.Since(l.t0).Nanoseconds(), VirtStartNs: virt.Nanoseconds(),
	})
	return id
}

// close ends span id at virtual time virt.
func (l *spanLog) close(id int, virt time.Duration) {
	if l == nil || id == 0 {
		return
	}
	sp := &l.spans[id-1]
	sp.HostEndNs = time.Since(l.t0).Nanoseconds()
	sp.VirtEndNs = virt.Nanoseconds()
}

// record adds a span after the fact, from timestamps taken where the
// benchmark could observe a call but not bracket it (inside RunTrial).
func (l *spanLog) record(parent int, layer, name string, hostStart, hostEnd time.Time, virtStart, virtEnd time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Workload: l.workload, Layer: layer, Name: name,
		HostStartNs: hostStart.Sub(l.t0).Nanoseconds(), HostEndNs: hostEnd.Sub(l.t0).Nanoseconds(),
		VirtStartNs: virtStart.Nanoseconds(), VirtEndNs: virtEnd.Nanoseconds(),
	})
}

// collect forces a garbage collection so that every repetition, trial and
// probe starts from a collected heap. Nothing frees a finished simulation
// today, so the collector re-marks every earlier rig each time; the span
// keeps that cost out of the harness's own row.
func (l *spanLog) collect(parent int) {
	sp := l.open(parent, "runtime", "runtime.GC", 0)
	runtime.GC()
	l.close(sp, 0)
}

// layerTime is one row of the per-layer host-time table.
type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTimes attributes every nanosecond of the root spans to exactly one
// layer: a span's self time is its duration minus the part its children
// cover. Children are sequential calls made by one host thread, but two
// simulated processes can hold spans open across each other's hand-offs, so
// the covered part is the union of the child intervals, not their sum.
func (l *spanLog) selfTimes() (rows []layerTime, totalNs int64) {
	children := make(map[int][]span)
	for _, sp := range l.spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	byLayer := make(map[string]*layerTime)
	for _, sp := range l.spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].HostStartNs < kids[j].HostStartNs })
		covered, edge := int64(0), sp.HostStartNs
		for _, k := range kids {
			start, end := max(k.HostStartNs, edge), min(k.HostEndNs, sp.HostEndNs)
			if end > start {
				covered += end - start
				edge = end
			}
		}
		self := sp.HostEndNs - sp.HostStartNs - covered
		row := byLayer[sp.Layer]
		if row == nil {
			row = &layerTime{Layer: sp.Layer}
			byLayer[sp.Layer] = row
		}
		row.Spans++
		row.SelfMs += ms(float64(self))
		if sp.Parent == 0 {
			totalNs += sp.HostEndNs - sp.HostStartNs
		}
	}
	for _, row := range byLayer {
		if totalNs > 0 {
			row.Share = row.SelfMs / ms(float64(totalNs))
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows, totalNs
}

// harnessLayer is the layer name of time spent in the benchmark's own code
// (reading counters, forcing GCs, encoding results): everything the spans
// around calls into internal/ packages do not cover.
const harnessLayer = "benchmark"

// spanFile is what a traced run leaves in benchmark/out/.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// HostLayers is host self time per layer; Attributed is the share of
	// the run that landed in a layer of the system rather than in the
	// harness itself.
	HostLayers []layerTime `json:"host_layers"`
	Attributed float64     `json:"attributed_share"`
	// VirtLayers is the virtual-clock side of the same table: the
	// per-layer metrics, which come from the registry and obs.Analyze.
	VirtLayers map[string]metricValue `json:"virtual_layers"`
	Spans      []span                 `json:"spans"`
}

// write leaves <workload>.spans.json in dir and returns the attributed share.
func (l *spanLog) write(dir string, seed int64, layers map[string]metricValue) (float64, error) {
	rows, _ := l.selfTimes()
	attributed := 1.0
	for _, r := range rows {
		if r.Layer == harnessLayer {
			attributed -= r.Share
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, l.workload+".spans.json")
	data, err := json.MarshalIndent(spanFile{
		Workload: l.workload, Seed: seed, HostLayers: rows, Attributed: attributed,
		VirtLayers: layers, Spans: l.spans,
	}, "", " ")
	if err != nil {
		return 0, err
	}
	return attributed, os.WriteFile(path, data, 0o644)
}
