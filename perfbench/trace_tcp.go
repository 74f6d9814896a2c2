package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tcpTrace collects what the traced TCP run reads from the nodes during
// the window: one CPU profile per node (/debug/pprof/profile) and the
// peak mempool backlog sampled from /metrics.
type tcpTrace struct {
	wg       sync.WaitGroup
	profiles [][]byte
	errs     []error

	mu      sync.Mutex
	pending float64
}

func startTCPTrace(client *http.Client, c *cluster, window time.Duration, end time.Time) *tcpTrace {
	t := &tcpTrace{profiles: make([][]byte, len(c.nodes)), errs: make([]error, len(c.nodes))}
	long := &http.Client{Timeout: window + time.Minute}
	seconds := int(window.Round(time.Second) / time.Second)
	for i, n := range c.nodes {
		t.wg.Add(1)
		go func(i int, addr string) {
			defer t.wg.Done()
			resp, err := long.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, seconds))
			if err != nil {
				t.errs[i] = err
				return
			}
			defer resp.Body.Close()
			t.profiles[i], t.errs[i] = io.ReadAll(resp.Body)
		}(i, n.metrics)
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for time.Now().Before(end) {
			for _, n := range c.nodes {
				if s, err := scrape(client, n.metrics); err == nil {
					t.mu.Lock()
					t.pending = math.Max(t.pending, sum(s, "zlb_mempool_pending"))
					t.mu.Unlock()
				}
			}
			time.Sleep(100 * time.Millisecond)
		}
	}()
	return t
}

func (t *tcpTrace) wait() { t.wg.Wait() }

// histP50 interpolates the median of a Prometheus histogram from the
// bucket growth over every trial's window, summed over all nodes.
func histP50(trials []*trial, name string) float64 {
	growth := map[float64]float64{}
	add := func(snap []nodeSnapshot, sign float64) {
		for _, n := range snap {
			for _, s := range n.prom {
				if s.Name != name+"_bucket" {
					continue
				}
				le := strings.TrimSuffix(strings.TrimPrefix(s.Labels, `{le="`), `"}`)
				bound := math.Inf(1)
				if le != "+Inf" {
					v, err := strconv.ParseFloat(le, 64)
					if err != nil {
						continue
					}
					bound = v
				}
				growth[bound] += sign * s.Value
			}
		}
	}
	for _, t := range trials {
		add(t.before, -1)
		add(t.after, 1)
	}
	bounds := make([]float64, 0, len(growth))
	for b := range growth {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || growth[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	half := growth[bounds[len(bounds)-1]] / 2
	lo, loCount := 0.0, 0.0
	for _, b := range bounds {
		if growth[b] >= half {
			if math.IsInf(b, 1) {
				return lo
			}
			return lo + (b-lo)*(half-loCount)/(growth[b]-loCount)
		}
		lo, loCount = b, growth[b]
	}
	return lo
}

// traceTCP fills the per-layer metrics of a traced TCP run: transport
// counters and the node CPU profile buckets over every trial's window,
// the node's own propose→commit median, the replays (on the last trial's
// blocks), and the cost ledger that sets the replayed per-tx costs
// against cpu_us_per_tx.
func traceTCP(dir string, procs int, in *loadInputs, trials []*trial, m map[string]float64) error {
	sumDelta := func(name string) float64 {
		t := 0.0
		for _, tr := range trials {
			t += delta(tr.before, tr.after, name)
		}
		return t
	}
	committed := 0.0
	total := map[string]float64{}
	for _, t := range trials {
		committed += t.committed
		m["mempool.pending_peak"] = math.Max(m["mempool.pending_peak"], t.trace.pending)
		for i, raw := range t.trace.profiles {
			if t.trace.errs[i] != nil {
				return fmt.Errorf("node %d profile: %w", i+1, t.trace.errs[i])
			}
			b, err := bucketProfile(raw)
			if err != nil {
				return fmt.Errorf("node %d profile: %w", i+1, err)
			}
			for k, v := range b {
				total[k] += v
			}
		}
	}
	frames := sumDelta("zlb_peer_sent_total")
	m["transport.frames_per_tx"] = frames / committed
	if frames > 0 {
		m["transport.bytes_per_frame"] = sumDelta("zlb_peer_sent_bytes_total") / frames
	}
	m["transport.send_drops"] = sumDelta("zlb_transport_send_drops_total")
	m["transport.events_dropped"] = sumDelta("zlb_transport_events_dropped")
	m["transport.submit_backpressure"] = sumDelta("zlb_transport_submit_backpressure_total")
	m["transport.decode_errors"] = sumDelta("zlb_transport_decode_errors")
	m["node.propose_to_commit_p50_ms"] = 1000 * histP50(trials, "zlb_commit_latency_seconds")
	setBuckets(total, m)

	if err := replayTCP(dir, procs, in, trials[len(trials)-1].chain, m); err != nil {
		return err
	}

	// Cost ledger: per committed tx, every node admits it, proposes it
	// once, speculatively verifies it once, applies it and persists its
	// share of a block and of a checkpoint. Per-block consensus
	// signatures, gob framing, syscalls, scheduling and GC are not
	// replayed; they are the unaccounted remainder, which node.cpu.*
	// breaks down. utxo.verifies_per_tx compares the profiled tx_sig time
	// with one verification per tx per node.
	perNode := m["mempool.add_us"] + m["mempool.prune_us_per_tx"] + m["mempool.take_us"]/m["bm.txs_per_block"] +
		m["wire.encode_batch_ns_per_tx"]/1000 + m["pipeline.speculate_batch_us_per_tx"] + m["bm.commit_block_us_per_tx"] +
		m["store.append_flush_us_per_block"]/m["bm.txs_per_block"] +
		1000*m["store.checkpoint_ms"]/(checkpointEvery*m["bm.txs_per_block"])
	m["cost.replayed_us_per_tx"] = clusterN * perNode
	m["cost.unaccounted_us_per_tx"] = m["cpu_us_per_tx"] - m["cost.replayed_us_per_tx"]
	m["utxo.verifies_per_tx"] = m["node.cpu.tx_sig"] / 100 * m["cpu_us_per_tx"] / (clusterN * m["utxo.verify_sig_us_per_tx"])
	m["traced.committed_tps"] = m["committed_tps"]
	m["traced.commit_p50_ms"] = m["commit_p50_ms"]
	m["traced.cpu_us_per_tx"] = m["cpu_us_per_tx"]
	fmt.Printf("# cost ledger: cpu %.1f us/tx = replayed %.1f + unaccounted %.1f (consensus signatures, gob, syscalls, scheduler, GC: see node.cpu.*); %.2f tx signature verifications per tx per node\n",
		m["cpu_us_per_tx"], m["cost.replayed_us_per_tx"], m["cost.unaccounted_us_per_tx"], m["utxo.verifies_per_tx"])
	return nil
}

// setBuckets turns CPU nanoseconds per bucket into node.cpu.* shares in
// percent; they sum to 100 by construction.
func setBuckets(ns map[string]float64, m map[string]float64) {
	all := 0.0
	for _, v := range ns {
		all += v
	}
	if all == 0 {
		return
	}
	var parts []string
	for _, name := range bucketNames() {
		share := 100 * ns[name] / all
		m["node.cpu."+name] = share
		parts = append(parts, fmt.Sprintf("%s %.1f%%", name, share))
	}
	fmt.Printf("# node cpu (%.1f s profiled): %s\n", all/1e9, strings.Join(parts, ", "))
}
