package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// tcpSpec shapes one TCP workload.
type tcpSpec struct {
	name   string
	closed bool
	// rate is the open loop's arrival rate (tx/s, Poisson arrivals).
	rate float64
	// inflight is the closed loop's target of submitted − applied
	// transactions, as read from replica 1's commit lines.
	inflight int
	// budgetPerSec sizes the closed loop's presigned transactions per
	// second of window; running out fails the run rather than quietly
	// capping throughput.
	budgetPerSec int
}

// tcp-steady's rate keeps the cluster far from its knee. The cluster is
// CPU-bound at any rate (it starts a block whenever work is pending), and
// the per-tx work a block carries lengthens its round, which lets more
// txs pile into the next block. On a 2-core host that feedback amplified
// host CPU contention: one competing busy thread raised p50 2.6x at
// 600 tx/s but 1.4x at 150 tx/s, and at 1000 tx/s the cluster fell
// behind the offered load outright. At 150 tx/s blocks hold ~7 txs, so
// per-block costs set the latency.
var (
	steadySpec   = tcpSpec{name: "tcp-steady", rate: 150}
	saturateSpec = tcpSpec{name: "tcp-saturate", closed: true, inflight: 4000, budgetPerSec: 8000}
)

const (
	clusterN     = 4
	quorum       = 3 // n − f replicas whose commit completes a tx's latency
	tcpTrials    = 4 // fresh clusters per run; setup_s and the rates are their medians
	fanoutWidth  = 64
	drainTimeout = 30 * time.Second
	faucetFunds  = 1_000_000_000
)

// loadInputs are a run's transactions, all derived from the seed: the
// fan-out (one genesis-spending tx, then fanoutWidth txs splitting its
// outputs) and the load proper, one independent 1-input payment per
// fan-out output.
type loadInputs struct {
	scheme  crypto.Scheme
	faucet  utxo.Address
	stage1  []*utxo.Transaction
	stage2  []*utxo.Transaction
	load    []*utxo.Transaction
	offsets []int64 // open loop: due time of load[i], ns after the epoch
}

func (in *loadInputs) fanout() []*utxo.Transaction {
	return append(append([]*utxo.Transaction(nil), in.stage1...), in.stage2...)
}

func makeInputs(seed int64, spec tcpSpec, window time.Duration) (*loadInputs, error) {
	kind := crypto.SchemeEd25519
	scheme, err := crypto.NewScheme(kind, crypto.NewRegistry(kind))
	if err != nil {
		return nil, err
	}
	// The nodes derive the faucet from -seed exactly like this (and like
	// zlb-client), so the genesis UTXO is the faucet's.
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed ^ 0xFA0CE7))
	if err != nil {
		return nil, err
	}
	faucet := utxo.AddressOf(kp.Public())
	rng := rand.New(rand.NewSource(seed))
	in := &loadInputs{scheme: scheme, faucet: faucet}

	count := spec.inflight + int(float64(spec.budgetPerSec)*window.Seconds())
	if !spec.closed {
		// Poisson arrivals conditioned on their count: rate × window
		// uniform times, sorted. Every seed then offers the same load, so
		// the per-tx figures do not move with the seed's arrival count.
		count = int(spec.rate * window.Seconds())
		for i := 0; i < count; i++ {
			in.offsets = append(in.offsets, rng.Int63n(int64(window)))
		}
		sort.Slice(in.offsets, func(i, j int) bool { return in.offsets[i] < in.offsets[j] })
	}
	per := (count + fanoutWidth - 1) / fanoutWidth
	v1 := types.Amount(faucetFunds / fanoutWidth)
	v2 := v1 / types.Amount(per)

	var nonce uint64
	newTx := func(in utxo.Input, outs []utxo.Output) *utxo.Transaction {
		nonce++
		return &utxo.Transaction{Inputs: []utxo.Input{in}, Outputs: outs, Nonce: nonce, Sender: kp.Public()}
	}
	outs := make([]utxo.Output, fanoutWidth)
	for i := range outs {
		outs[i] = utxo.Output{Account: faucet, Value: v1}
	}
	genesis := utxo.Input{Prev: utxo.Outpoint{TxID: types.Hash([]byte("genesis")), Index: 0}, Value: faucetFunds}
	in.stage1 = []*utxo.Transaction{newTx(genesis, outs)}
	if err := signAll(scheme, kp, in.stage1); err != nil {
		return nil, err
	}
	s1 := in.stage1[0].ID()
	for j := 0; j < fanoutWidth; j++ {
		outs := make([]utxo.Output, per)
		for i := range outs {
			outs[i] = utxo.Output{Account: faucet, Value: v2}
		}
		in.stage2 = append(in.stage2, newTx(utxo.Input{Prev: utxo.Outpoint{TxID: s1, Index: uint32(j)}, Value: v1}, outs))
	}
	if err := signAll(scheme, kp, in.stage2); err != nil {
		return nil, err
	}
	var recipients [64]utxo.Address
	for i := range recipients {
		rng.Read(recipients[i][:])
	}
	for i := 0; i < count; i++ {
		src := utxo.Input{Prev: utxo.Outpoint{TxID: in.stage2[i/per].ID(), Index: uint32(i % per)}, Value: v2}
		amount := 1 + types.Amount(rng.Int63n(int64(v2)-1))
		outs := []utxo.Output{{Account: recipients[rng.Intn(len(recipients))], Value: amount}}
		if amount < v2 {
			outs = append(outs, utxo.Output{Account: faucet, Value: v2 - amount})
		}
		in.load = append(in.load, newTx(src, outs))
	}
	if err := signAll(scheme, kp, in.load); err != nil {
		return nil, err
	}
	return in, nil
}

// signAll signs txs on every core (ed25519 signing is deterministic).
func signAll(scheme crypto.Scheme, kp *crypto.KeyPair, txs []*utxo.Transaction) error {
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(txs); i += workers {
				sig, err := scheme.Sign(kp, txs[i].SigDigest())
				if err != nil {
					errs[w] = err
					return
				}
				txs[i].Sig = sig
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("presigning: %w", err)
		}
	}
	return nil
}

// setupCluster spawns a cluster and commits the fan-out at every replica;
// the returned duration is setup_s's sample.
func setupCluster(cfg runConfig, dir string, procs int, in *loadInputs) (*cluster, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	c, err := startCluster(cfg.NodeBin, dir, clusterN, procs, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	steps := []struct {
		txs  []*utxo.Transaction
		want int64
	}{
		{in.stage1, int64(len(in.stage1))},
		{in.stage2, int64(len(in.stage1) + len(in.stage2))},
	}
	for _, s := range steps {
		if err := submitAll(c.peers(), s.txs, 30*time.Second); err != nil {
			c.kill()
			return nil, 0, fmt.Errorf("fan-out: %w", err)
		}
		if err := c.waitApplied(s.want, 60*time.Second); err != nil {
			c.kill()
			return nil, 0, fmt.Errorf("fan-out: %w", err)
		}
	}
	return c, time.Since(start), nil
}

// nodeSnapshot is a node's counters at one instant.
type nodeSnapshot struct {
	cpu   time.Duration
	alloc float64
	prom  []promSample
}

func snapshot(client *http.Client, c *cluster) ([]nodeSnapshot, error) {
	out := make([]nodeSnapshot, len(c.nodes))
	for i, n := range c.nodes {
		var err error
		if out[i].cpu, err = procCPU(n.cmd.Process.Pid); err != nil {
			return nil, err
		}
		if out[i].alloc, err = totalAlloc(client, n.metrics); err != nil {
			return nil, err
		}
		if out[i].prom, err = scrape(client, n.metrics); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// delta sums a counter's growth over all nodes between two snapshots.
func delta(a, b []nodeSnapshot, name string) float64 {
	t := 0.0
	for i := range a {
		t += sum(b[i].prom, name) - sum(a[i].prom, name)
	}
	return t
}

// trial is one fresh cluster carrying the load for one window.
type trial struct {
	setup     float64
	chain     *chainView
	lat       []float64 // ms, submit basis → quorum commit
	tps       float64
	tpsBlocks int
	committed float64 // tps × window: the txs the window's counters are divided by
	// allocDrained is Σ node TotalAlloc once every submitted tx has
	// committed; alloc_kb_per_tx is its growth from before over submitted.
	allocDrained float64
	before       []nodeSnapshot
	after        []nodeSnapshot
	rss          float64
	submitted    int
	failed       int
	late         []float64
	genCPU       time.Duration
	trace        *tcpTrace
}

// runTrial sets up a cluster, drives the load for one window, drains,
// shuts the nodes down gracefully and verifies what they persisted.
func runTrial(cfg runConfig, spec tcpSpec, procs int, dir string, in *loadInputs, window time.Duration, out *outcome) (*trial, error) {
	fanout := in.fanout()
	c, setup, err := setupCluster(cfg, filepath.Join(dir, "cluster"), procs, in)
	if err != nil {
		// One retry: a loopback port reserved by freePorts can be taken
		// by another process before the node binds it.
		fmt.Fprintf(os.Stderr, "perfbench: set-up failed, retrying once: %v\n", err)
		if c, setup, err = setupCluster(cfg, filepath.Join(dir, "cluster"), procs, in); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			c.kill()
		}
	}()
	gen, err := startGen(cfg, dir, spec, in, window, c)
	if err != nil {
		return nil, err
	}
	defer gen.abort()

	t := &trial{setup: setup.Seconds()}
	client := &http.Client{Timeout: 10 * time.Second}
	if t.before, err = snapshot(client, c); err != nil {
		return nil, err
	}
	epoch := time.Now()
	end := epoch.Add(window)
	if cfg.Trace {
		t.trace = startTCPTrace(client, c, window, end)
	}
	if spec.closed {
		base := int64(len(fanout))
		c.nodes[0].setCredit(func(total int64) { gen.credit(total - base) })
	}
	if err := gen.start(epoch); err != nil {
		return nil, err
	}
	time.Sleep(time.Until(end))
	if t.after, err = snapshot(client, c); err != nil {
		return nil, err
	}
	res, genCPU, err := gen.wait()
	if err != nil {
		return nil, err
	}
	c.nodes[0].setCredit(nil)
	if t.trace != nil {
		t.trace.wait()
	}

	// Drain: everything submitted must commit at every replica.
	drainErr := c.waitApplied(int64(len(fanout)+res.Submitted), drainTimeout)
	// Allocation is taken over the whole load, drain included: a
	// checkpoint allocates a copy of the UTXO table, and a window edge
	// that cuts a checkpoint period in two would make the figure depend
	// on where the edge fell.
	for _, n := range c.nodes {
		a, err := totalAlloc(client, n.metrics)
		if err != nil {
			return nil, err
		}
		t.allocDrained += a
	}
	t.submitted = res.Submitted
	for _, n := range c.nodes {
		v, err := peakRSS(strconv.Itoa(n.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		t.rss = math.Max(t.rss, v)
	}
	stopErr := c.stop(20 * time.Second)
	stopped = true
	if drainErr != nil {
		out.fail("drain: %v", drainErr)
	}
	if stopErr != nil {
		out.fail("shutdown: %v", stopErr)
	}
	if res.Exhausted {
		out.fail("closed loop used all %d presigned txs: raise budgetPerSec", len(in.load))
	}
	t.chain = verifyChain(out, c, fanout, in.load[:res.Submitted])

	// Per-tx commit: the block of each load tx, then the quorum-th and
	// the last replica's stamp of that block.
	stamps := make(map[uint64][]time.Time)
	for _, n := range c.nodes {
		for _, l := range n.commitLines() {
			stamps[l.K] = append(stamps[l.K], l.At)
		}
	}
	for _, s := range stamps {
		sort.Slice(s, func(i, j int) bool { return s[i].Before(s[j]) })
	}
	for i := 0; i < res.Submitted; i++ {
		k := t.chain.txBlock[len(fanout)+i]
		s := stamps[k]
		if k == 0 || len(s) < clusterN || res.OK[i] < clusterN {
			t.failed++
		}
		if k == 0 || len(s) < quorum {
			continue
		}
		basis := epoch.Add(time.Duration(res.SendNs[i]))
		if !spec.closed {
			basis = epoch.Add(time.Duration(in.offsets[i]))
		}
		t.lat = append(t.lat, ms(s[quorum-1].Sub(basis)))
	}
	t.tps, t.tpsBlocks = throughput(t.chain, stamps, end)
	if t.tps == 0 {
		out.fail("fewer than two load blocks committed at every replica within the window")
	}
	t.committed = t.tps * window.Seconds()
	t.genCPU = genCPU
	for _, ns := range res.LateNs {
		t.late = append(t.late, float64(ns)/1e6)
	}
	return t, nil
}

func runTCP(cfg runConfig, spec tcpSpec) (*outcome, error) {
	procs := runtime.NumCPU() / clusterN
	if procs < 1 {
		procs = 1
	}
	runDir := filepath.Join(cfg.Build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	printEnv(cfg, procs, runDir)
	transport.RegisterWireTypes()

	// The run is split into tcpTrials windows, each on a fresh cluster:
	// the cluster settles into one of a few block cadences early in a
	// window and keeps it, so independent trials are what make a run's
	// figures repeatable. Every trial replays the same presigned inputs
	// from genesis.
	window := time.Duration(cfg.Seconds) * time.Second / tcpTrials
	if window < time.Second {
		window = time.Second
	}
	in, err := makeInputs(cfg.Seed, spec, window)
	if err != nil {
		return nil, err
	}
	out := &outcome{Correct: true, Metrics: map[string]float64{}}
	var trials []*trial
	for i := 0; i < tcpTrials; i++ {
		t, err := runTrial(cfg, spec, procs, runDir, in, window, out)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i+1, err)
		}
		trials = append(trials, t)
	}

	var setups, tps, cpu, wire, alloc, rss, lat, late []float64
	var genCPU time.Duration
	for _, t := range trials {
		out.Attempted += t.submitted
		out.Failed += t.failed
		setups = append(setups, t.setup)
		lat = append(lat, t.lat...)
		late = append(late, t.late...)
		genCPU += t.genCPU
		rss = append(rss, t.rss)
		if t.tps == 0 {
			continue
		}
		tps = append(tps, t.tps)
		var c time.Duration
		a := t.allocDrained
		for i := range t.before {
			c += t.after[i].cpu - t.before[i].cpu
			a -= t.before[i].alloc
		}
		cpu = append(cpu, us(c)/t.committed)
		alloc = append(alloc, a/1024/float64(t.submitted))
		wire = append(wire, delta(t.before, t.after, "zlb_peer_sent_bytes_total")/t.committed)
	}
	if len(tps) == 0 {
		return out, nil
	}
	m := out.Metrics
	m["setup_s"] = median(setups)
	m["committed_tps"] = median(tps)
	// Latency percentiles are taken per trial and reported as their
	// median over the trials: a host stall that hits one trial moves that
	// trial's tail, not the run's figure.
	var p50s, p99s, p999s []float64
	for _, t := range trials {
		p50s = append(p50s, percentile(t.lat, 0.50))
		p99s = append(p99s, percentile(t.lat, 0.99))
		p999s = append(p999s, percentile(t.lat, 0.999))
	}
	m["commit_p50_ms"] = median(p50s)
	m["commit_p99_ms"] = median(p99s)
	m["commit_p999_ms"] = median(p999s)
	m["cpu_us_per_tx"] = median(cpu)
	m["wire_bytes_per_tx"] = median(wire)
	m["alloc_kb_per_tx"] = median(alloc)
	m["peak_rss_mb"] = median(rss)
	m["load.late_p99_ms"] = percentile(late, 0.99)
	m["load.late_max_ms"] = percentile(late, 1)
	m["load.gen_cpu_s"] = genCPU.Seconds() / float64(len(trials))
	m["load.failed_ratio"] = float64(out.Failed) / float64(max(out.Attempted, 1))

	fmt.Printf("# %s: %d trials of %v, %d submitted, %d failed (ratio %.6f)\n",
		spec.name, len(trials), window, out.Attempted, out.Failed, m["load.failed_ratio"])
	for i, t := range trials {
		fmt.Printf("#   trial %d: setup %.3f s, %.1f tx/s over %d load blocks, %d blocks (mean %.1f load txs), rebuilt and matched %d/%d, p50 %.1f ms, p99 %.1f ms, p999 %.1f ms\n",
			i+1, t.setup, t.tps, t.tpsBlocks, len(t.chain.all), meanTxs(t.chain.load), t.chain.matched, len(t.chain.all), percentile(t.lat, 0.5), percentile(t.lat, 0.99), percentile(t.lat, 0.999))
	}
	fmt.Printf("# commit latency samples %d (%d per trial): a trial's p999 has %d beyond it (>= 10 is meaningful); pooled p99 %.1f ms, p999 %.1f ms\n",
		len(lat), len(lat)/len(trials), len(lat)/len(trials)/1000, percentile(lat, 0.99), percentile(lat, 0.999))
	fmt.Printf("# generator late p99 %.2f ms, max %.2f ms, cpu %.2f s per trial\n",
		m["load.late_p99_ms"], m["load.late_max_ms"], m["load.gen_cpu_s"])

	if cfg.Trace && out.Correct {
		if err := traceTCP(runDir, procs, in, trials, m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// throughput is the load committed at every replica per second, taken
// between whole-block completions so block granularity does not quantize
// it: the txs of the load blocks completed after the first one and by the
// window end, over the time between those completions.
func throughput(chain *chainView, stamps map[uint64][]time.Time, end time.Time) (float64, int) {
	var first, last time.Time
	txs, n := 0, 0
	for _, b := range chain.load {
		s := stamps[b.K]
		if len(s) < clusterN || s[clusterN-1].After(end) {
			continue
		}
		done := s[clusterN-1]
		if first.IsZero() {
			first = done
			continue
		}
		txs += len(b.Txs)
		n++
		if done.After(last) {
			last = done
		}
	}
	if n == 0 || !last.After(first) {
		return 0, 0
	}
	return float64(txs) / last.Sub(first).Seconds(), n
}

func meanTxs(blocks []*bm.Block) float64 {
	if len(blocks) == 0 {
		return 0
	}
	t := 0
	for _, b := range blocks {
		t += len(b.Txs)
	}
	return float64(t) / float64(len(blocks))
}

// chainView is the verified chain: every block rebuilt from the commit
// counts in submit order, with each digest matched against the stores.
type chainView struct {
	all     []*bm.Block
	load    []*bm.Block             // blocks holding load txs
	txBlock []uint64                // submit index (fan-out first) → block K; 0 = never committed
	matched int                     // blocks whose rebuilt digest equals the persisted one
	digests map[uint64]types.Digest // replica 1's persisted digests
}

// verifyChain checks the run's outputs:
//   - every replica's store, read back after the graceful shutdown, holds
//     the same block digest at every index;
//   - every replica logged the same (K, applied) commit sequence;
//   - replica 1's commit counts, laid over the submit order, rebuild each
//     block exactly: bm.NewBlock(K, txs).Digest equals the persisted
//     digest, which proves the tx → block mapping the latency figures use.
func verifyChain(out *outcome, c *cluster, fanout, load []*utxo.Transaction) *chainView {
	submitted := append(append([]*utxo.Transaction(nil), fanout...), load...)
	v := &chainView{txBlock: make([]uint64, len(submitted)), digests: map[uint64]types.Digest{}}
	var ref []uint64
	for i, n := range c.nodes {
		st, err := store.Open(n.dataDir, store.Options{})
		if err != nil {
			out.fail("opening replica %d store: %v", n.id, err)
			return v
		}
		recs := st.BlockRecords()
		if err := st.Close(); err != nil {
			out.fail("closing replica %d store: %v", n.id, err)
		}
		ks := make([]uint64, len(recs))
		for j, r := range recs {
			ks[j] = r.K
			if i == 0 {
				v.digests[r.K] = r.Digest
			} else if d, ok := v.digests[r.K]; !ok || d != r.Digest {
				out.fail("replica %d disagrees with replica 1 at block %d", n.id, r.K)
			}
		}
		if i == 0 {
			ref = ks
		} else if len(ks) != len(ref) {
			out.fail("replica %d stores %d blocks, replica 1 %d", n.id, len(ks), len(ref))
		}
	}
	lines := c.nodes[0].commitLines()
	for _, n := range c.nodes[1:] {
		other := n.commitLines()
		if len(other) != len(lines) {
			out.fail("replica %d logged %d commits, replica 1 %d", n.id, len(other), len(lines))
			continue
		}
		for j := range lines {
			if other[j].K != lines[j].K || other[j].Applied != lines[j].Applied {
				out.fail("replica %d commit %d is (K=%d, %d txs), replica 1 (K=%d, %d txs)",
					n.id, j, other[j].K, other[j].Applied, lines[j].K, lines[j].Applied)
				break
			}
		}
	}
	if len(lines) != len(ref) {
		out.fail("replica 1 logged %d commits but stores %d blocks", len(lines), len(ref))
	}
	next := 0
	for _, l := range lines {
		if next+l.Applied > len(submitted) {
			out.fail("block %d applies %d txs, only %d submitted remain", l.K, l.Applied, len(submitted)-next)
			return v
		}
		b := bm.NewBlock(l.K, submitted[next:next+l.Applied])
		if d, ok := v.digests[l.K]; ok && d == b.Digest {
			v.matched++
		} else {
			out.fail("block %d rebuilt from commit counts does not match the persisted digest", l.K)
		}
		for i := next; i < next+l.Applied; i++ {
			v.txBlock[i] = l.K
		}
		v.all = append(v.all, b)
		if next+l.Applied > len(fanout) {
			v.load = append(v.load, b)
		}
		next += l.Applied
	}
	if next != len(submitted) {
		out.fail("%d of %d submitted txs were never committed", len(submitted)-next, len(submitted))
	}
	return v
}

// genProc is the running load generator process.
type genProc struct {
	cmd     *exec.Cmd
	stdin   *os.File
	stdinMu sync.Mutex
	outPath string
	lastCr  int64
	done    bool
}

func startGen(cfg runConfig, dir string, spec tcpSpec, in *loadInputs, window time.Duration, c *cluster) (*genProc, error) {
	batch, err := wire.EncodeBatch(in.load)
	if err != nil {
		return nil, err
	}
	order := genInput{
		Peers:    c.peers(),
		Closed:   spec.closed,
		Offsets:  in.offsets,
		Inflight: spec.inflight,
		Window:   window,
		Batch:    batch,
	}
	inPath := filepath.Join(dir, "gen-in.gob")
	if err := writeGob(inPath, &order); err != nil {
		return nil, err
	}
	g := &genProc{outPath: filepath.Join(dir, "gen-out.gob")}
	g.cmd = exec.Command(cfg.SelfBin, "gen", "-in", inPath, "-out", g.outPath)
	g.cmd.Stderr = os.Stderr
	g.cmd.SysProcAttr = dieWithParent()
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	g.cmd.Stdin = pr
	g.stdin = pw
	stdout, err := g.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := g.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting generator: %w", err)
	}
	pr.Close()
	ready := make(chan error, 1)
	go func() {
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err == nil && line != "ready\n" {
			err = fmt.Errorf("generator said %q", line)
		}
		ready <- err
	}()
	select {
	case err := <-ready:
		if err != nil {
			g.abort()
			return nil, fmt.Errorf("generator: %w", err)
		}
	case <-time.After(120 * time.Second):
		g.abort()
		return nil, fmt.Errorf("generator not ready within 120 s")
	}
	return g, nil
}

func (g *genProc) start(epoch time.Time) error {
	g.stdinMu.Lock()
	defer g.stdinMu.Unlock()
	_, err := fmt.Fprintf(g.stdin, "go %d\n", epoch.UnixNano())
	return err
}

// credit forwards replica 1's applied load count to the closed loop.
func (g *genProc) credit(applied int64) {
	g.stdinMu.Lock()
	defer g.stdinMu.Unlock()
	if applied <= g.lastCr || g.done {
		return
	}
	g.lastCr = applied
	_, _ = fmt.Fprintf(g.stdin, "applied %d\n", applied)
}

// wait collects the generator's result and CPU time.
func (g *genProc) wait() (*genOutput, time.Duration, error) {
	err := g.cmd.Wait()
	g.stdinMu.Lock()
	g.done = true
	g.stdin.Close()
	g.stdinMu.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("generator: %w", err)
	}
	cpu := g.cmd.ProcessState.UserTime() + g.cmd.ProcessState.SystemTime()
	var res genOutput
	if err := readGob(g.outPath, &res); err != nil {
		return nil, 0, err
	}
	return &res, cpu, nil
}

// abort kills a generator that has not been waited for.
func (g *genProc) abort() {
	g.stdinMu.Lock()
	done := g.done
	g.done = true
	g.stdinMu.Unlock()
	if done {
		return
	}
	_ = g.cmd.Process.Kill()
	_ = g.cmd.Wait()
	g.stdin.Close()
}
