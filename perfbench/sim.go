package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bench"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// The fig3 ZLB point at n=30, seed 42, 3 instances (bench.ZLBFig3Options)
// is run repeatedly until the window has passed (at least simMinReps
// times). Each repetition must reproduce the point pinned in
// testdata/bench_baseline.json bit for bit.
const (
	simN         = 30
	simInstances = 3
	simSeed      = 42
	simMinReps   = 3
	simSetups    = 5
)

// Handler message classes timed in the traced run, in report order.
var simClasses = []string{
	"rbc.init", "rbc.echo", "rbc.ready", "rbc.payload",
	"bincon.est", "bincon.coord", "bincon.aux", "bincon.decide",
	"asmr.timer", "asmr.other",
}

func classOf(msg simnet.Message) int {
	switch msg.(type) {
	case *rbc.Init:
		return 0
	case *rbc.Echo:
		return 1
	case *rbc.Ready:
		return 2
	case *rbc.PayloadReq, *rbc.PayloadResp:
		return 3
	case *bincon.Est:
		return 4
	case *bincon.Coord:
		return 5
	case *bincon.Aux:
		return 6
	case *bincon.Decide:
		return 7
	}
	return 9
}

const timerClass = 8

// simWrap sits in front of one replica's handler. It stamps the wall
// time of every commit (c.Commits[id] is written by this replica's own
// handler calls, which the simulator serializes with ours) and, when
// traced, times each handler call by message class and captures the
// statements and certificates replica 1 receives.
type simWrap struct {
	inner   simnet.Handler
	commits map[uint64]*harness.Commit
	seen    map[uint64]bool
	stamps  []kStamp
	traced  bool
	busy    [10]time.Duration
	calls   [10]int
	capture *capture // replica 1 only
}

type kStamp struct {
	k  uint64
	at time.Time
}

// capture is the accountability input replica 1 received.
type capture struct {
	stmts []accountability.Signed
	certs []*accountability.Certificate
}

func (w *simWrap) OnMessage(from types.ReplicaID, msg simnet.Message) {
	if w.capture != nil {
		w.capture.add(msg)
	}
	if w.traced {
		t := time.Now()
		w.inner.OnMessage(from, msg)
		c := classOf(msg)
		w.busy[c] += time.Since(t)
		w.calls[c]++
	} else {
		w.inner.OnMessage(from, msg)
	}
	w.stamp()
}

func (w *simWrap) OnTimer(payload any) {
	if w.traced {
		t := time.Now()
		w.inner.OnTimer(payload)
		w.busy[timerClass] += time.Since(t)
		w.calls[timerClass]++
	} else {
		w.inner.OnTimer(payload)
	}
	w.stamp()
}

func (w *simWrap) stamp() {
	if len(w.commits) == len(w.seen) {
		return
	}
	now := time.Now()
	for k := range w.commits {
		if !w.seen[k] {
			w.seen[k] = true
			w.stamps = append(w.stamps, kStamp{k, now})
		}
	}
}

func (c *capture) add(msg simnet.Message) {
	switch m := msg.(type) {
	case *rbc.Init:
		c.stmts = append(c.stmts, m.Stmt)
	case *rbc.Echo:
		c.stmts = append(c.stmts, m.Stmt)
	case *rbc.Ready:
		c.stmts = append(c.stmts, m.Stmt)
		if m.InitStmt != nil {
			c.stmts = append(c.stmts, *m.InitStmt)
		}
	case *bincon.Coord:
		c.stmts = append(c.stmts, m.Stmt)
	case *bincon.Aux:
		c.stmts = append(c.stmts, m.Stmt)
	case *bincon.Decide:
		if m.Cert != nil {
			c.certs = append(c.certs, m.Cert)
		}
	}
}

// simRep is one repetition's measurements.
type simRep struct {
	setups    []float64
	wall, cpu time.Duration
	alloc     uint64
	txs       int
	bytes     int64
	events    int
	point     bench.Fig3Point
	latencies []float64 // ms from Start to the (n−f)-th commit of each instance
	wraps     []*simWrap
	profile   []byte
	cluster   *harness.Cluster // kept for the accountability replay (first traced repetition)
}

func simRepetition(traced, first bool) (*simRep, error) {
	// Cluster construction is sub-millisecond, so each repetition sets up
	// simSetups clusters and runs the last.
	r := &simRep{}
	var c *harness.Cluster
	for i := 0; i < simSetups; i++ {
		runtime.GC()
		t := time.Now()
		var err error
		if c, err = harness.New(bench.ZLBFig3Options(simN, simInstances, simSeed)); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t).Seconds())
	}
	r.cluster = c
	for _, id := range c.Members {
		w := &simWrap{inner: c.Replicas[id], commits: c.Commits[id], seen: map[uint64]bool{}, traced: traced}
		if traced && first && id == c.Members[0] {
			w.capture = &capture{}
		}
		r.wraps = append(r.wraps, w)
		c.Net.ReplaceHandler(id, func(simnet.Env) simnet.Handler { return w })
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	start := time.Now()
	c.Start()
	c.RunUntilQuiet(30 * time.Minute)
	r.wall = time.Since(start)
	r.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	if c.Exhausted() {
		return nil, fmt.Errorf("simulator exhausted its MaxEvents budget")
	}

	// The fig3 point, computed exactly as bench.RunFig3 does.
	var last time.Duration
	for _, commit := range c.Commits[c.HonestMembers()[0]] {
		r.txs += bench.BatchTxs * len(commit.Decision.Proposals)
		if commit.At > last {
			last = commit.At
		}
	}
	r.point = bench.Fig3Point{System: bench.SystemZLB, N: simN, Instances: c.CommittedInstances(), VirtualSec: last.Seconds()}
	if last > 0 {
		r.point.TxPerSec = float64(r.txs) / last.Seconds()
	}
	r.bytes = c.Net.BytesSent
	r.events = c.Net.Delivered

	byK := map[uint64][]time.Time{}
	for _, w := range r.wraps {
		for _, s := range w.stamps {
			byK[s.k] = append(byK[s.k], s.at)
		}
	}
	q := simN - types.MaxClassicFaults(simN)
	for _, at := range byK {
		if len(at) < q {
			continue
		}
		sort.Slice(at, func(i, j int) bool { return at[i].Before(at[j]) })
		r.latencies = append(r.latencies, ms(at[q-1].Sub(start)))
	}
	return r, nil
}

// baselinePoint reads the pinned fig3 ZLB n=30 point.
func baselinePoint(root string) (bench.Fig3Point, error) {
	raw, err := os.ReadFile(filepath.Join(root, "testdata", "bench_baseline.json"))
	if err != nil {
		return bench.Fig3Point{}, err
	}
	var doc struct{ Data []bench.Fig3Point }
	if err := json.Unmarshal(raw, &doc); err != nil {
		return bench.Fig3Point{}, fmt.Errorf("parsing bench baseline: %w", err)
	}
	for _, p := range doc.Data {
		if p.System == bench.SystemZLB && p.N == simN {
			return p, nil
		}
	}
	return bench.Fig3Point{}, fmt.Errorf("bench baseline has no ZLB n=%d point", simN)
}

func runSim(cfg runConfig) (*outcome, error) {
	want, err := baselinePoint(cfg.Root)
	if err != nil {
		return nil, err
	}
	// One P, as the fig3 perf gate's baseline records: on a small shared
	// host the parallel windows' barriers turn every descheduled vCPU into
	// a stall of the whole simulation, which makes wall time unsteady.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	printEnv(cfg, 1, cfg.Root)
	out := &outcome{Correct: true, Metrics: map[string]float64{}}
	deadline := time.Now().Add(time.Duration(cfg.Seconds) * time.Second)
	var reps []*simRep
	for len(reps) < simMinReps || time.Now().Before(deadline) {
		r, err := simRepetition(cfg.Trace, len(reps) == 0)
		if err != nil {
			return nil, err
		}
		if p := r.point; p.TxPerSec != want.TxPerSec || p.Instances != want.Instances || p.VirtualSec != want.VirtualSec {
			out.fail("repetition %d: fig3 ZLB n=%d is (%v tx/s, %d instances, %v s), baseline (%v, %d, %v)",
				len(reps)+1, simN, p.TxPerSec, p.Instances, p.VirtualSec, want.TxPerSec, want.Instances, want.VirtualSec)
		}
		// Release the cluster before the next repetition; the traced run
		// keeps the first one's signers for the accountability replay.
		for _, w := range r.wraps {
			w.inner, w.commits = nil, nil
		}
		if !cfg.Trace || len(reps) > 0 {
			r.cluster = nil
		}
		reps = append(reps, r)
	}
	out.Attempted = len(reps)

	var setups, tps, cpu, alloc, walls, lat []float64
	for _, r := range reps {
		setups = append(setups, r.setups...)
		tps = append(tps, float64(r.txs)/r.wall.Seconds())
		cpu = append(cpu, us(r.cpu)/float64(r.txs))
		alloc = append(alloc, float64(r.alloc)/1024/float64(r.txs))
		walls = append(walls, r.wall.Seconds())
		lat = append(lat, r.latencies...)
	}
	rss, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	m := out.Metrics
	m["setup_s"] = median(setups)
	m["committed_tps"] = median(tps)
	// As on TCP, percentiles are taken within each repetition and
	// reported as their median over the repetitions: with 3 instances a
	// repetition's p99 and p999 are its slowest instance, and a pooled
	// p99 would be the slowest instance of the whole run, set by the one
	// repetition the host slowed most.
	var p50s, p99s, p999s []float64
	for _, r := range reps {
		p50s = append(p50s, percentile(r.latencies, 0.50))
		p99s = append(p99s, percentile(r.latencies, 0.99))
		p999s = append(p999s, percentile(r.latencies, 0.999))
	}
	p999 := percentile(lat, 0.999)
	m["commit_p50_ms"] = median(p50s)
	m["commit_p99_ms"] = median(p99s)
	m["commit_p999_ms"] = median(p999s)
	m["cpu_us_per_tx"] = median(cpu)
	m["wire_bytes_per_tx"] = float64(reps[0].bytes) / float64(reps[0].txs)
	m["alloc_kb_per_tx"] = median(alloc)
	m["peak_rss_mb"] = rss
	fmt.Printf("# sim-fig3-n30: %d repetitions, %d simulated txs per point (%.2f virtual tx/s, bit-identical to the baseline: %v)\n",
		len(reps), reps[0].txs, reps[0].point.TxPerSec, out.Correct)
	fmt.Printf("# sim_wall_s %.4f (median per point; repetitions %.3f..%.3f), sim_alloc_mb %.1f per point, %d latency samples (%d beyond the pooled p999 %.1f ms)\n",
		median(walls), walls[0], walls[len(walls)-1], median(alloc)*float64(reps[0].txs)/1024, len(lat), beyond(lat, p999), p999)
	if cfg.Trace {
		if err := traceSim(reps, m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceSim fills the simulator's per-layer metrics: handler time per
// message class, the event count, the handlers' share of CPU, the
// process's CPU profile buckets and the accountability replay.
func traceSim(reps []*simRep, m map[string]float64) error {
	var busy [10]time.Duration
	var calls [10]int
	var cpu time.Duration
	ns := map[string]float64{}
	for _, r := range reps {
		for _, w := range r.wraps {
			for i := range busy {
				busy[i] += w.busy[i]
				calls[i] += w.calls[i]
			}
		}
		cpu += r.cpu
		b, err := bucketProfile(r.profile)
		if err != nil {
			return err
		}
		for k, v := range b {
			ns[k] += v
		}
	}
	var all time.Duration
	for i, name := range simClasses {
		all += busy[i]
		if calls[i] > 0 {
			m[name+"_us"] = us(busy[i]) / float64(calls[i])
		}
		m[name+".calls"] = float64(calls[i]) / float64(len(reps))
	}
	m["simnet.events"] = float64(reps[0].events)
	m["simnet.handler_share"] = float64(all) / float64(cpu)
	setBuckets(ns, m)

	// Accountability: replay replica 1's received statements and DECIDE
	// certificates into fresh logs (best of three passes).
	capt := reps[0].wraps[0].capture
	verifier := reps[0].cluster.Signers[reps[0].cluster.Members[0]]
	bestRec, bestCert := time.Duration(1<<62), time.Duration(1<<62)
	for pass := 0; pass < 3; pass++ {
		log := accountability.NewLog(verifier, nil)
		t := time.Now()
		for _, s := range capt.stmts {
			log.Record(s)
		}
		rec := time.Since(t)
		t = time.Now()
		for _, c := range capt.certs {
			log.RecordCertificate(c)
		}
		cert := time.Since(t)
		bestRec, bestCert = min(bestRec, rec), min(bestCert, cert)
	}
	if len(capt.stmts) > 0 {
		m["accountability.record_us"] = us(bestRec) / float64(len(capt.stmts))
	}
	if len(capt.certs) > 0 {
		m["accountability.record_certificate_us"] = us(bestCert) / float64(len(capt.certs))
	}
	m["accountability.calls"] = float64(len(capt.stmts) + len(capt.certs))
	fmt.Printf("# accountability replay at replica 1: %d statements, %d DECIDE certificates; bincon.decide_us contains record_certificate_us (overlap, not subtracted)\n",
		len(capt.stmts), len(capt.certs))
	m["traced.committed_tps"] = m["committed_tps"]
	m["traced.commit_p50_ms"] = m["commit_p50_ms"]
	m["traced.cpu_us_per_tx"] = m["cpu_us_per_tx"]
	return nil
}
