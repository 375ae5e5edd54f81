package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/metrics"
)

// ChainStats summarises causal-chain completeness: of the acked commits
// the trace window fully observed, how many were acked on their policy's
// evidence — tx_begin → covering force → its writes' ships → quorum_met —
// judged by the rule the online monitor applies (ackLedger).
type ChainStats struct {
	// Commits is the number of assessable acked commits (tx_begin and
	// tx_ack both retained, at least one WAL append).
	Commits int
	// Complete is how many of those had their evidence when acked.
	Complete int
	// Incomplete counts the failing commits by the evidence they lacked.
	Incomplete map[string]int
}

// Ratio returns Complete/Commits (1.0 when no commits were assessable).
func (c ChainStats) Ratio() float64 {
	if c.Commits == 0 {
		return 1
	}
	return float64(c.Complete) / float64(c.Commits)
}

// CriticalPath decomposes acked commits' latency into the phases the
// paper's argument turns on: time spent before the covering force, inside
// it — split into local force work vs the replication quorum barrier —
// and after it.
type CriticalPath struct {
	Commits       int
	Total         *metrics.Histogram // tx_begin → tx_ack
	PreForce      *metrics.Histogram // tx_begin → covering log_submit
	Force         *metrics.Histogram // log_submit → log_complete (covering)
	LocalForce    *metrics.Histogram // force minus quorum barrier
	QuorumBarrier *metrics.Histogram // Σ max(0, quorum_met − write) over the force's writes; 0 under local acks
	PostForce     *metrics.Histogram // log_complete → tx_ack
}

// TimelineBucket aggregates fault/repair activity over one time slice.
type TimelineBucket struct {
	Start, End time.Duration
	Ships      int
	Acks       int
	Drops      int
	Dups       int
	Repairs    int
	Resent     int
	Evictions  int
	Epochs     int
	Power      int
	Degraded   int
	Violations int
	Failovers  int // elect/fence/promote/redirect activity
}

func (b TimelineBucket) empty() bool {
	return b.Ships == 0 && b.Acks == 0 && b.Drops == 0 && b.Dups == 0 &&
		b.Repairs == 0 && b.Evictions == 0 && b.Epochs == 0 &&
		b.Power == 0 && b.Degraded == 0 && b.Violations == 0 && b.Failovers == 0
}

type shipInfo struct {
	seq      int64
	at       time.Duration
	applies  map[int64]time.Duration // replica label → first apply
	acks     map[int64]time.Duration // replica label → first learned ack
	quorumAt time.Duration
	hasQ     bool
}

// entryInfo is one write of a force: an hv_ack (a buffer entry, which a
// durable event retires) or an hv_absorb.
type entryInfo struct {
	at      time.Duration
	durable time.Duration
	hasDur  bool
	ship    *shipInfo
}

type forceInfo struct {
	submit   time.Duration
	complete time.Duration
	flushed  int64
	done     bool
	entries  []*entryInfo
}

type txInfo struct {
	begin   time.Duration
	ack     time.Duration
	acked   bool
	verdict ackVerdict
	force   *forceInfo // the covering force, when the window holds it
}

type epochSeq struct {
	epoch int64
	seq   int64
}

// Analysis is the offline reconstruction of a trace dump: per-commit
// causal chains, stage latencies, the critical-path decomposition, and a
// fault/repair timeline.
type Analysis struct {
	Events  int
	Dropped int
	Labels  map[string]int64
	// QuorumK is the quorum an ack needed under the dump's contract (zero
	// for local acks, or when the dump carries no contract).
	QuorumK  int
	Chains   ChainStats
	Critical CriticalPath
	// Stages are the per-stage latency histograms, in pipeline order.
	Stages   []*metrics.Histogram
	Timeline []TimelineBucket

	events  []Event
	txs     []*txInfo
	forces  []*forceInfo // completed, in completion order
	ships   map[SpanID]*shipInfo
	entries map[SpanID]*entryInfo
}

// Analyze reconstructs causal chains and latency structure from a trace
// dump. buckets sets the timeline resolution (default 24).
func Analyze(d TraceDump, buckets int) (*Analysis, error) {
	events, err := d.DecodedEvents()
	if err != nil {
		return nil, err
	}
	if buckets <= 0 {
		buckets = 24
	}
	a := &Analysis{
		Events:  d.Emitted,
		Dropped: d.Dropped,
		Labels:  d.Labels,
		Chains:  ChainStats{Incomplete: make(map[string]int)},
		Critical: CriticalPath{
			Total:         metrics.NewHistogram("commit total"),
			PreForce:      metrics.NewHistogram("pre-force"),
			Force:         metrics.NewHistogram("covering force"),
			LocalForce:    metrics.NewHistogram("local force"),
			QuorumBarrier: metrics.NewHistogram("quorum barrier"),
			PostForce:     metrics.NewHistogram("post-force"),
		},
		events:  events,
		ships:   make(map[SpanID]*shipInfo),
		entries: make(map[SpanID]*entryInfo),
	}

	stCommit := metrics.NewHistogram("commit (tx_begin→tx_ack)")
	stForce := metrics.NewHistogram("wal force (log_submit→log_complete)")
	stBuffer := metrics.NewHistogram("buffer residency (hv_ack→durable)")
	stNet := metrics.NewHistogram("net delivery (net_send→net_deliver)")
	stFirstAck := metrics.NewHistogram("replication (ship→first replica_ack)")
	stQuorum := metrics.NewHistogram("quorum barrier (ship→quorum_met)")

	txBySpan := make(map[SpanID]*txInfo)
	forceBySpan := make(map[SpanID]*forceInfo)
	netSent := make(map[[2]int64]time.Duration) // (cause span, dst label) → send time
	if d.Contract != nil {
		a.QuorumK = d.Contract.QuorumK
	}
	// Spans are unique machine-wide; evidence, epochs and sequence numbers
	// are per log domain.
	type domain struct {
		evidence ackLedger
		epoch    int64
		shipByES map[epochSeq]*shipInfo
	}
	doms := domains[domain]{fresh: func(uint8) *domain {
		return &domain{evidence: newAckLedger(a.QuorumK), epoch: 1, shipByES: make(map[epochSeq]*shipInfo)}
	}}

	for i := range events {
		e := &events[i]
		routed := doms.route(e.Dom)
		for _, st := range routed {
			st.evidence.apply(*e)
			if e.Kind == EvEpoch {
				st.epoch = e.Arg1
			}
		}
		dom := routed[0]
		switch e.Kind {
		case EvTxBegin:
			tx := &txInfo{begin: e.At}
			txBySpan[e.Span] = tx
			a.txs = append(a.txs, tx)
		case EvTxAck:
			v := dom.evidence.judge(*e)
			if tx, ok := txBySpan[e.Parent]; ok && !tx.acked {
				tx.acked, tx.ack, tx.verdict, tx.force = true, e.At, v, forceBySpan[v.force]
				stCommit.Observe(e.At - tx.begin)
			}
		case EvLogSubmit:
			forceBySpan[e.Span] = &forceInfo{submit: e.At}
		case EvLogComplete:
			if f, ok := forceBySpan[e.Parent]; ok && !f.done {
				f.done, f.complete, f.flushed = true, e.At, e.Arg1
				a.forces = append(a.forces, f)
				stForce.Observe(f.complete - f.submit)
			}
		case EvHvAck, EvHvAbsorb:
			en := &entryInfo{at: e.At}
			a.entries[e.Span] = en
			if f, ok := forceBySpan[e.Parent]; ok {
				f.entries = append(f.entries, en)
			}
		case EvDurable:
			if en, ok := a.entries[e.Parent]; ok && !en.hasDur {
				en.hasDur, en.durable = true, e.At
				stBuffer.Observe(e.At - en.at)
			}
		case EvShip:
			sh := &shipInfo{
				seq: e.Arg1, at: e.At,
				applies: make(map[int64]time.Duration),
				acks:    make(map[int64]time.Duration),
			}
			a.ships[e.Span] = sh
			dom.shipByES[epochSeq{dom.epoch, e.Arg1}] = sh
			if en, ok := a.entries[e.Parent]; ok {
				en.ship = sh
			}
		case EvNetSend:
			if e.Parent != 0 {
				k := [2]int64{int64(e.Parent), e.Arg2}
				if _, ok := netSent[k]; !ok {
					netSent[k] = e.At
				}
			}
		case EvNetDeliver:
			if e.Parent != 0 {
				k := [2]int64{int64(e.Parent), e.Arg2}
				if at, ok := netSent[k]; ok {
					stNet.Observe(e.At - at)
					delete(netSent, k)
				}
			}
		case EvReplicaApply:
			if sh, ok := a.ships[e.Parent]; ok {
				if _, dup := sh.applies[e.Arg2]; !dup {
					sh.applies[e.Arg2] = e.At
				}
			}
		case EvReplicaAck:
			if sh, ok := a.ships[e.Parent]; ok {
				if _, dup := sh.acks[e.Arg2]; !dup {
					sh.acks[e.Arg2] = e.At
					if len(sh.acks) == 1 {
						stFirstAck.Observe(e.At - sh.at)
					}
				}
			}
		case EvQuorumMet:
			sh, ok := a.ships[e.Parent]
			if !ok {
				sh, ok = dom.shipByES[epochSeq{dom.epoch, e.Arg1}]
			}
			if ok && !sh.hasQ {
				sh.hasQ, sh.quorumAt = true, e.At
				stQuorum.Observe(e.At - sh.at)
			}
		}
	}

	a.assessChains()
	a.Stages = []*metrics.Histogram{stCommit, stForce, stBuffer, stNet, stFirstAck, stQuorum}
	a.buildTimeline(buckets)
	return a, nil
}

// assessChains counts the ledger's verdicts and decomposes each commit with a
// covering force into its critical path.
func (a *Analysis) assessChains() {
	for _, tx := range a.txs {
		if !tx.acked || tx.verdict.lsn == 0 {
			continue // read-only, or the window clipped the chain
		}
		a.Chains.Commits++
		if tx.verdict.missing == "" {
			a.Chains.Complete++
		} else {
			a.Chains.Incomplete[tx.verdict.missing]++
		}
		f := tx.force
		if f == nil {
			continue
		}
		force := f.complete - f.submit
		var quorum time.Duration
		for _, en := range f.entries {
			// A local-ack force waits for no quorum, however soon one forms.
			if sh := en.ship; a.QuorumK > 0 && sh != nil && sh.hasQ && sh.quorumAt > en.at {
				quorum += sh.quorumAt - en.at
			}
		}
		quorum = min(quorum, force)
		a.Critical.Commits++
		a.Critical.Total.Observe(tx.ack - tx.begin)
		a.Critical.PreForce.Observe(max(f.submit-tx.begin, 0))
		a.Critical.Force.Observe(force)
		a.Critical.LocalForce.Observe(force - quorum)
		a.Critical.QuorumBarrier.Observe(quorum)
		a.Critical.PostForce.Observe(tx.ack - f.complete)
	}
}

func (a *Analysis) buildTimeline(buckets int) {
	if len(a.events) == 0 {
		return
	}
	lo, hi := a.events[0].At, a.events[len(a.events)-1].At
	if hi <= lo {
		hi = lo + 1
	}
	width := (hi - lo + time.Duration(buckets)) / time.Duration(buckets)
	bs := make([]TimelineBucket, buckets)
	for i := range bs {
		bs[i].Start = lo + time.Duration(i)*width
		bs[i].End = bs[i].Start + width
	}
	at := func(t time.Duration) *TimelineBucket {
		i := int((t - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= buckets {
			i = buckets - 1
		}
		return &bs[i]
	}
	for _, e := range a.events {
		b := at(e.At)
		switch e.Kind {
		case EvShip:
			b.Ships++
		case EvReplicaAck:
			b.Acks++
		case EvNetDrop:
			b.Drops++
		case EvNetDup:
			b.Dups++
		case EvRepair:
			b.Repairs++
			b.Resent += int(e.Arg2)
		case EvEvict:
			b.Evictions++
		case EvEpoch:
			b.Epochs++
		case EvPowerFail, EvPowerDC, EvPowerRestore:
			b.Power++
		case EvDegraded, EvRestored:
			b.Degraded++
		case EvViolation:
			b.Violations++
		case EvElect, EvFence, EvPromote, EvRedirect:
			b.Failovers++
		}
	}
	a.Timeline = bs
}

// StageTable renders the per-stage latency percentiles.
func (a *Analysis) StageTable() *metrics.Table {
	t := latencyTable("stage")
	for _, h := range a.Stages {
		latencyRow(t, h.Name(), snapHistogram(h))
	}
	return t
}

// CriticalTable renders the per-commit critical-path decomposition,
// separating local-force time from the replication quorum barrier.
func (a *Analysis) CriticalTable() *metrics.Table {
	t := latencyTable("phase")
	c := a.Critical
	for _, h := range []*metrics.Histogram{c.Total, c.PreForce, c.Force, c.LocalForce, c.QuorumBarrier, c.PostForce} {
		latencyRow(t, h.Name(), snapHistogram(h))
	}
	return t
}

// TimelineTable renders the drop/resend/repair timeline, skipping slices
// where nothing notable happened.
func (a *Analysis) TimelineTable() *metrics.Table {
	t := metrics.NewTable("window", "ships", "acks", "drops", "dups", "repairs", "resent", "evict", "epoch", "power", "degr", "viol", "ha")
	n := func(v int) string {
		if v == 0 {
			return "."
		}
		return fmt.Sprintf("%d", v)
	}
	for _, b := range a.Timeline {
		if b.empty() {
			continue
		}
		t.AddRow(fmt.Sprintf("%v–%v", b.Start.Round(time.Millisecond), b.End.Round(time.Millisecond)),
			n(b.Ships), n(b.Acks), n(b.Drops), n(b.Dups), n(b.Repairs), n(b.Resent),
			n(b.Evictions), n(b.Epochs), n(b.Power), n(b.Degraded), n(b.Violations), n(b.Failovers))
	}
	return t
}

// chromeEvent is one Chrome trace-event (the Perfetto-loadable JSON form).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	chromePidPrimary = 1
	chromeTidTx      = 1
	chromeTidWal     = 2
	chromeTidBuf     = 3
	chromeTidShip    = 4
	chromeTidFaults  = 5
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedKeys returns m's keys in ascending order, so that an export ranging
// over a map is a function of the trace and not of Go's map iteration.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// WriteChromeTrace emits the analysis as Chrome trace-event JSON, loadable
// in Perfetto / chrome://tracing: spans for transactions, forces, buffered
// entries and ship→quorum windows; instants for faults, repairs and
// violations; one process row per replica. The same trace always gives the
// same bytes: rows go out in label-name order, spans in span-id order.
func (a *Analysis) WriteChromeTrace(w io.Writer) error {
	var evs []chromeEvent
	meta := func(pid int64, name string) {
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": name}})
	}
	tmeta := func(pid, tid int64, name string) {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	meta(chromePidPrimary, "primary")
	for _, tn := range []struct {
		tid  int64
		name string
	}{{chromeTidTx, "transactions"}, {chromeTidWal, "wal"}, {chromeTidBuf, "rapilog buffer"},
		{chromeTidShip, "replication"}, {chromeTidFaults, "faults"}} {
		tmeta(chromePidPrimary, tn.tid, tn.name)
	}
	replicaPid := func(label int64) int64 { return 100 + label }
	for _, n := range sortedKeys(a.Labels) {
		meta(replicaPid(a.Labels[n]), n)
	}

	for _, tx := range a.txs {
		if !tx.acked {
			continue
		}
		evs = append(evs, chromeEvent{Name: "tx", Ph: "X", Ts: us(tx.begin),
			Dur: us(tx.ack - tx.begin), Pid: chromePidPrimary, Tid: chromeTidTx,
			Args: map[string]any{"lsn": tx.verdict.lsn}})
	}
	for _, f := range a.forces {
		evs = append(evs, chromeEvent{Name: fmt.Sprintf("force→%d", f.flushed), Ph: "X",
			Ts: us(f.submit), Dur: us(f.complete - f.submit),
			Pid: chromePidPrimary, Tid: chromeTidWal})
	}
	for _, span := range sortedKeys(a.entries) {
		en := a.entries[span]
		if !en.hasDur {
			continue
		}
		evs = append(evs, chromeEvent{Name: "buffered", Ph: "X", Ts: us(en.at),
			Dur: us(en.durable - en.at), Pid: chromePidPrimary, Tid: chromeTidBuf})
	}
	for _, span := range sortedKeys(a.ships) {
		sh := a.ships[span]
		end, name := sh.at, fmt.Sprintf("ship#%d", sh.seq)
		if sh.hasQ {
			end = sh.quorumAt
			name = fmt.Sprintf("ship#%d→quorum", sh.seq)
		} else {
			for _, at := range sh.acks {
				if at > end {
					end = at
				}
			}
		}
		evs = append(evs, chromeEvent{Name: name, Ph: "X", Ts: us(sh.at),
			Dur: us(end - sh.at), Pid: chromePidPrimary, Tid: chromeTidShip})
		for _, rep := range sortedKeys(sh.applies) {
			evs = append(evs, chromeEvent{Name: fmt.Sprintf("apply#%d", sh.seq), Ph: "i",
				Ts: us(sh.applies[rep]), Pid: replicaPid(rep), Tid: 1, S: "t"})
		}
	}
	for _, e := range a.events {
		var name string
		pid, tid := int64(chromePidPrimary), int64(chromeTidFaults)
		switch e.Kind {
		case EvNetDrop, EvNetDup, EvRepair, EvEvict, EvEpoch:
			name, tid = e.Kind.String(), chromeTidShip
		case EvPowerFail, EvPowerDC, EvPowerRestore, EvDegraded, EvRestored,
			EvDumpStart, EvDumpDone, EvViolation,
			EvElect, EvFence, EvPromote, EvRedirect:
			name = e.Kind.String()
		default:
			continue
		}
		evs = append(evs, chromeEvent{Name: name, Ph: "i", Ts: us(e.At), Pid: pid, Tid: tid, S: "g"})
	}

	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"}
	return json.NewEncoder(w).Encode(out)
}
