package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// The load generator is a separate process (perfbench gen), so its CPU
// is measured apart from the harness and a starved or late generator
// shows in load.* instead of in the node metrics. It speaks zlb-client's
// protocol: every transaction is broadcast to all replicas, one
// connection per replica, written by one sending goroutine; each node
// acks every submit on the same connection, in order.

// genInput is the generator's work order, written by the harness.
type genInput struct {
	Peers    []string
	Closed   bool    // closed loop (keep Inflight in flight) instead of open loop
	Offsets  []int64 // open loop: due time of tx i in ns after the epoch
	Inflight int
	Window   time.Duration
	Batch    []byte // wire.EncodeBatch of the load transactions in submit order
}

// genOutput is the generator's record of what it did.
type genOutput struct {
	Submitted int
	Exhausted bool    // closed loop ran out of presigned transactions
	SendNs    []int64 // send start of tx i in ns after the epoch
	LateNs    []int64 // open loop: start − due; closed loop: eligible → last copy written
	OK        []uint8 // replicas that acked tx i OK
	Refused   []uint8 // replicas that refused tx i (backpressure)
}

// clientEnvelope mirrors the node's wire frame; clients send as replica 0.
type clientEnvelope struct {
	From types.ReplicaID
	Msg  any
}

func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	in := fs.String("in", "", "work order file")
	out := fs.String("out", "", "result file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	transport.RegisterWireTypes()
	var order genInput
	if err := readGob(*in, &order); err != nil {
		return err
	}
	txs, err := wire.DecodeBatch(order.Batch)
	if err != nil {
		return fmt.Errorf("decoding load: %w", err)
	}
	frames, err := encodeFrames(txs)
	if err != nil {
		return err
	}
	conns := make([]net.Conn, len(order.Peers))
	for i, addr := range order.Peers {
		if conns[i], err = net.DialTimeout("tcp", addr, 5*time.Second); err != nil {
			return fmt.Errorf("dialing replica %d: %w", i+1, err)
		}
		defer conns[i].Close()
	}

	// Handshake: "ready" out, "go <epoch unix ns>" in, then the harness
	// streams "applied <n>" lines (load txs applied at replica 1) for the
	// closed loop.
	fmt.Println("ready")
	stdin := bufio.NewScanner(os.Stdin)
	if !stdin.Scan() {
		return fmt.Errorf("no start line")
	}
	epochNs, err := strconv.ParseInt(strings.TrimPrefix(stdin.Text(), "go "), 10, 64)
	if err != nil {
		return fmt.Errorf("bad start line %q", stdin.Text())
	}
	epoch := time.Unix(0, epochNs)
	var applied atomic.Int64
	credit := make(chan struct{}, 1)
	go func() {
		for stdin.Scan() {
			if n, err := strconv.ParseInt(strings.TrimPrefix(stdin.Text(), "applied "), 10, 64); err == nil {
				applied.Store(n)
				select {
				case credit <- struct{}{}:
				default:
				}
			}
		}
	}()

	res := &genOutput{
		SendNs:  make([]int64, 0, len(txs)),
		LateNs:  make([]int64, 0, len(txs)),
		OK:      make([]uint8, len(txs)),
		Refused: make([]uint8, len(txs)),
	}
	// Ack readers: the j-th ack on a connection answers its j-th submit.
	// verdicts[c][j] is written by connection c's reader alone (+1 OK,
	// -1 refused, 0 missing) and read after the readers have exited.
	verdicts := make([][]int8, len(conns))
	acked := make([]atomic.Int64, len(conns))
	var readers sync.WaitGroup
	for c := range conns {
		verdicts[c] = make([]int8, len(txs))
		readers.Add(1)
		go func(c int) {
			defer readers.Done()
			dec := gob.NewDecoder(conns[c])
			for j := range txs {
				var env clientEnvelope
				if err := dec.Decode(&env); err != nil {
					return
				}
				verdicts[c][j] = -1
				if ack, ok := env.Msg.(*transport.SubmitAck); ok && ack.OK {
					verdicts[c][j] = 1
				}
				acked[c].Add(1)
			}
		}(c)
	}

	end := epoch.Add(order.Window)
	dead := make([]bool, len(conns))
	for i := range txs {
		var due time.Time
		if order.Closed {
			for int64(i)-applied.Load() >= int64(order.Inflight) && time.Now().Before(end) {
				select {
				case <-credit:
				case <-time.After(time.Until(end)):
				}
			}
			due = time.Now()
		} else {
			if i >= len(order.Offsets) {
				break
			}
			due = epoch.Add(time.Duration(order.Offsets[i]))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		start := time.Now()
		if !start.Before(end) {
			break
		}
		for c, conn := range conns {
			if dead[c] {
				continue
			}
			if _, err := conn.Write(frames[i]); err != nil {
				dead[c] = true
			}
		}
		done := time.Now()
		res.SendNs = append(res.SendNs, start.Sub(epoch).Nanoseconds())
		if order.Closed {
			res.LateNs = append(res.LateNs, done.Sub(due).Nanoseconds())
		} else {
			res.LateNs = append(res.LateNs, start.Sub(due).Nanoseconds())
		}
		res.Submitted++
	}
	res.Exhausted = order.Closed && res.Submitted == len(txs)

	// Wait for the acks of everything submitted (bounded), then unblock
	// the readers.
	deadline := time.Now().Add(10 * time.Second)
	for c := 0; c < len(conns); c++ {
		for !dead[c] && acked[c].Load() < int64(res.Submitted) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, conn := range conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	readers.Wait()
	for _, v := range verdicts {
		for j := 0; j < res.Submitted; j++ {
			switch v[j] {
			case 1:
				res.OK[j]++
			case -1:
				res.Refused[j]++
			}
		}
	}
	return writeGob(*out, res)
}

// encodeFrames pre-encodes every submit as the bytes one gob stream would
// carry: the stream is identical on every connection, so the sending loop
// only writes bytes and the generator's own cost stays flat.
func encodeFrames(txs []*utxo.Transaction) ([][]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	ends := make([]int, len(txs))
	for i, tx := range txs {
		if err := enc.Encode(clientEnvelope{Msg: &transport.SubmitTx{Tx: tx}}); err != nil {
			return nil, fmt.Errorf("encoding submit %d: %w", i, err)
		}
		ends[i] = buf.Len()
	}
	all := buf.Bytes()
	frames := make([][]byte, len(txs))
	start := 0
	for i, e := range ends {
		frames[i] = all[start:e]
		start = e
	}
	return frames, nil
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
