package main

import (
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// The per-layer replays time calls into each layer's public functions on
// the blocks the run produced (rebuilt and digest-verified by
// verifyChain), with GOMAXPROCS set to the nodes' value. Every replay
// works on fresh decoded copies, so no memoized digest or signature
// verdict leaks from one layer's timing into another's.

const checkpointEvery = 16 // zlb-node's default -checkpoint-every

// decodeCopies returns each block's txs as fresh objects.
func decodeCopies(payloads [][]byte) ([][]*utxo.Transaction, error) {
	out := make([][]*utxo.Transaction, len(payloads))
	for i, p := range payloads {
		txs, err := wire.DecodeBatch(p)
		if err != nil {
			return nil, err
		}
		out[i] = txs
	}
	return out, nil
}

func replayTCP(dir string, procs int, in *loadInputs, chain *chainView, m map[string]float64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	loadTxs := 0
	for _, b := range chain.load {
		loadTxs += len(b.Txs)
	}
	if loadTxs == 0 {
		return fmt.Errorf("replay: no load blocks")
	}
	perTx := func(d time.Duration) float64 { return us(d) / float64(loadTxs) }

	// wire: batch codec over the run's blocks.
	payloads := make([][]byte, len(chain.load))
	var enc, dec time.Duration
	size := 0
	for i, b := range chain.load {
		t := time.Now()
		p, err := wire.EncodeBatch(b.Txs)
		enc += time.Since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := wire.DecodeBatch(p); err != nil {
			return err
		}
		dec += time.Since(t)
		payloads[i] = p
		size += len(p)
	}
	m["wire.encode_batch_ns_per_tx"] = float64(enc.Nanoseconds()) / float64(loadTxs)
	m["wire.decode_batch_ns_per_tx"] = float64(dec.Nanoseconds()) / float64(loadTxs)
	m["wire.batch_bytes_per_tx"] = float64(size) / float64(loadTxs)

	// mempool: arrivals in submit order, one Take at the proposer's limit
	// and one Prune per block, as zlb-node does.
	blocks, err := decodeCopies(payloads)
	if err != nil {
		return err
	}
	pool := mempool.New()
	var add, take, prune time.Duration
	for _, txs := range blocks {
		t := time.Now()
		for _, tx := range txs {
			if err := pool.Add(tx); err != nil {
				return fmt.Errorf("replay: mempool add: %w", err)
			}
		}
		add += time.Since(t)
		t = time.Now()
		pool.Take(2000)
		take += time.Since(t)
		t = time.Now()
		pool.Prune(txs)
		prune += time.Since(t)
	}
	m["mempool.add_us"] = perTx(add)
	m["mempool.take_us"] = us(take) / float64(len(blocks))
	m["mempool.prune_us_per_tx"] = perTx(prune)

	// crypto and utxo: the raw ed25519 verification, then the memoizing
	// transaction check on fresh copies.
	if blocks, err = decodeCopies(payloads); err != nil {
		return err
	}
	var raw, sig time.Duration
	rawN := 0
	for _, txs := range blocks {
		for _, tx := range txs {
			if rawN < 2000 {
				t := time.Now()
				ok := in.scheme.Verify(tx.Sender, tx.SigDigest(), tx.Sig)
				raw += time.Since(t)
				if !ok {
					return fmt.Errorf("replay: bad signature")
				}
				rawN++
			}
			t := time.Now()
			err := tx.VerifySig(in.scheme)
			sig += time.Since(t)
			if err != nil {
				return err
			}
		}
	}
	m["crypto.ed25519_verify_us"] = us(raw) / float64(rawN)
	m["utxo.verify_sig_us_per_tx"] = perTx(sig)

	// pipeline: speculative verification of each delivered payload, on a
	// one-worker pool so the task's own time is measured; a barrier task
	// queued behind it marks completion.
	spec := pipeline.NewPool(1)
	tv := pipeline.NewTxVerifier(spec, in.scheme)
	var spTime time.Duration
	for _, p := range payloads {
		t := time.Now()
		tv.SpeculateBatch(p, wire.NewBatchCache(0))
		done := make(chan struct{})
		for !spec.TryDo(func() { close(done) }) {
			runtime.Gosched()
		}
		<-done
		spTime += time.Since(t)
	}
	m["pipeline.speculate_batch_us_per_tx"] = perTx(spTime)

	if err := replayLedger(dir, in, chain, payloads, m, loadTxs); err != nil {
		return err
	}
	return replayTransport(payloads, blocks, m)
}

// replayLedger commits the whole chain (fan-out first, untimed) on a
// fresh genesis ledger with the parallel apply, and writes it through a
// store at the nodes' checkpoint cadence.
func replayLedger(dir string, in *loadInputs, chain *chainView, payloads [][]byte, m map[string]float64, loadTxs int) error {
	ledger := bm.NewLedger(in.scheme)
	ledger.Genesis(map[utxo.Address]types.Amount{in.faucet: faucetFunds})
	ledger.SetParallel(pipeline.NewPool(0))
	stDir := filepath.Join(dir, "replay-store")
	if err := os.RemoveAll(stDir); err != nil {
		return err
	}
	st, err := store.Open(stDir, store.Options{CheckpointEvery: checkpointEvery, Fsync: true})
	if err != nil {
		return err
	}
	defer st.Close()
	// The fan-out blocks come first so the load spends existing outputs;
	// only load blocks are timed.
	fanoutBlocks := len(chain.all) - len(chain.load)
	chainPayloads := make([][]byte, 0, len(chain.all))
	for _, b := range chain.all[:fanoutBlocks] {
		p, err := wire.EncodeBatch(b.Txs)
		if err != nil {
			return err
		}
		chainPayloads = append(chainPayloads, p)
	}
	copies, err := decodeCopies(append(chainPayloads, payloads...))
	if err != nil {
		return err
	}
	all := make([]*bm.Block, 0, len(chain.all))
	for i, txs := range copies {
		for _, tx := range txs {
			_ = tx.VerifySig(in.scheme) // the node's speculation has run by commit time
		}
		all = append(all, bm.NewBlock(chain.all[i].K, txs))
	}
	var commit, appendFlush, cpTime time.Duration
	var cps, cpBytes int
	for i, b := range all {
		t := time.Now()
		applied := ledger.CommitBlock(b)
		c := time.Since(t)
		if applied != len(b.Txs) {
			return fmt.Errorf("replay: block %d applied %d of %d txs", b.K, applied, len(b.Txs))
		}
		t = time.Now()
		if err := st.AppendBlock(b, 0); err != nil {
			return err
		}
		var cp time.Duration
		if st.ShouldCheckpoint() {
			tc := time.Now()
			state := ledger.CheckpointState()
			if err := st.WriteCheckpoint(state); err != nil {
				return err
			}
			cp = time.Since(tc)
			if i >= fanoutBlocks {
				cps++
				cpBytes += len(wire.EncodeCheckpoint(state))
			}
		}
		if err := st.Flush(); err != nil {
			return err
		}
		af := time.Since(t) - cp
		if i >= fanoutBlocks {
			commit += c
			appendFlush += af
			cpTime += cp
		}
	}
	loadBlocks := float64(len(chain.load))
	m["bm.commit_block_us_per_tx"] = us(commit) / float64(loadTxs)
	m["bm.txs_per_block"] = float64(loadTxs) / loadBlocks
	m["store.append_flush_us_per_block"] = us(appendFlush) / loadBlocks
	if cps > 0 {
		m["store.checkpoint_ms"] = ms(cpTime) / float64(cps)
		m["store.checkpoint_bytes"] = float64(cpBytes) / float64(cps)
	}
	return nil
}

// arrivals is a transport handler that reports every rbc.Init it
// receives.
type arrivals chan time.Time

func (a arrivals) OnMessage(_ types.ReplicaID, msg simnet.Message) {
	if _, ok := msg.(*rbc.Init); ok {
		a <- time.Now()
	}
}

func (a arrivals) OnTimer(any) {}

// replayTransport runs two in-process transport.Nodes on loopback: a
// client submits the run's transactions to node 2 one at a time (ack
// round trip), and node 1 sends node 2 an rbc.Init carrying a median-size
// block of the run.
func replayTransport(payloads [][]byte, blocks [][]*utxo.Transaction, m map[string]float64) error {
	ports, err := freePorts(2)
	if err != nil {
		return err
	}
	peers := map[types.ReplicaID]string{1: ports[0], 2: ports[1]}
	got := make(arrivals, 1)
	nodes := []*transport.Node{
		transport.NewNode(transport.Config{Self: 1, Listen: ports[0], Peers: peers}),
		transport.NewNode(transport.Config{Self: 2, Listen: ports[1], Peers: peers}),
	}
	nodes[0].SetHandler(arrivals(nil)) // receives nothing: node 2 never sends
	nodes[1].SetHandler(got)
	served := make(chan error, len(nodes))
	for _, n := range nodes {
		go func(n *transport.Node) { served <- n.Serve() }(n)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		for range nodes {
			<-served
		}
	}()

	var conn net.Conn
	deadline := time.Now().Add(10 * time.Second)
	for {
		if conn, err = net.Dial("tcp", ports[1]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replay: dialing transport node: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer conn.Close()
	encd, decd := gob.NewEncoder(conn), gob.NewDecoder(conn)
	var rtts []float64
	for _, txs := range blocks {
		for _, tx := range txs {
			if len(rtts) == 2000 {
				break
			}
			t := time.Now()
			if err := encd.Encode(clientEnvelope{Msg: &transport.SubmitTx{Tx: tx}}); err != nil {
				return err
			}
			var env clientEnvelope
			if err := decd.Decode(&env); err != nil {
				return err
			}
			rtts = append(rtts, us(time.Since(t)))
		}
	}
	m["transport.submit_ack_rtt_us"] = median(rtts)

	idx := make([]int, len(payloads))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return len(blocks[idx[a]]) < len(blocks[idx[b]]) })
	mid := idx[len(idx)/2]
	var frames []float64
	for r := 0; r < 21; r++ {
		t := time.Now()
		nodes[0].Send(2, &rbc.Init{Payload: payloads[mid], ClaimedSigs: len(blocks[mid])})
		select {
		case at := <-got:
			frames = append(frames, us(at.Sub(t)))
		case <-time.After(10 * time.Second):
			return fmt.Errorf("replay: rbc.Init frame not delivered")
		}
	}
	m["transport.init_frame_us_per_tx"] = median(frames) / float64(len(blocks[mid]))
	return nil
}
