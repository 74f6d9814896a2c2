package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/utxo"
)

// commitLine is one "block K committed: A txs applied" line of a node's
// log, stamped when the harness read it.
type commitLine struct {
	K       uint64
	Applied int
	At      time.Time
}

var commitRe = regexp.MustCompile(`block (\d+) committed: (\d+) txs applied`)

// nodeProc is one zlb-node process and the harness's view of its log.
type nodeProc struct {
	id      int
	cmd     *exec.Cmd
	listen  string
	metrics string
	dataDir string
	drained chan struct{} // closed when the stderr drain has hit EOF

	mu      sync.Mutex
	commits []commitLine
	applied int64
	tail    []string            // last log lines, for diagnostics
	credit  func(applied int64) // called on every commit line (closed loop)
}

func (n *nodeProc) appliedTotal() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

func (n *nodeProc) setCredit(fn func(int64)) {
	n.mu.Lock()
	n.credit = fn
	n.mu.Unlock()
}

func (n *nodeProc) commitLines() []commitLine {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]commitLine(nil), n.commits...)
}

// drain reads the node's stderr until EOF. At info level a node logs one
// line per submitted transaction, so the pipe must be emptied
// continuously: a full pipe would block the node's logger and with it
// the event loop. Commit lines are stamped on arrival.
func (n *nodeProc) drain(r *bufio.Reader) {
	defer close(n.drained)
	for {
		line, err := r.ReadSlice('\n')
		if len(line) > 0 {
			n.observe(line)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return
		}
	}
}

func (n *nodeProc) observe(line []byte) {
	if !bytes.Contains(line, []byte(" committed: ")) {
		if !bytes.Contains(line, []byte(" enqueued ")) {
			n.mu.Lock()
			n.tail = append(n.tail, strings.TrimSpace(string(line)))
			if len(n.tail) > 20 {
				n.tail = n.tail[1:]
			}
			n.mu.Unlock()
		}
		return
	}
	at := time.Now()
	m := commitRe.FindSubmatch(line)
	if m == nil {
		return
	}
	k, _ := strconv.ParseUint(string(m[1]), 10, 64)
	applied, _ := strconv.Atoi(string(m[2]))
	n.mu.Lock()
	n.commits = append(n.commits, commitLine{K: k, Applied: applied, At: at})
	n.applied += int64(applied)
	total, credit := n.applied, n.credit
	n.mu.Unlock()
	if credit != nil {
		credit(total)
	}
}

// cluster is n zlb-node processes on loopback, each with its own data
// directory and metrics endpoint.
type cluster struct {
	nodes []*nodeProc
}

// freePorts reserves k distinct loopback ports by binding and releasing
// them.
func freePorts(k int) ([]string, error) {
	out := make([]string, 0, k)
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// startCluster spawns n nodes with GOMAXPROCS=procs set through their
// environment, all deriving the demo PKI and faucet from seed.
func startCluster(bin, dir string, n, procs int, seed int64) (*cluster, error) {
	ports, err := freePorts(2 * n)
	if err != nil {
		return nil, err
	}
	peers := strings.Join(ports[:n], ",")
	c := &cluster{}
	for i := 1; i <= n; i++ {
		node := &nodeProc{
			id:      i,
			listen:  ports[i-1],
			metrics: ports[n+i-1],
			dataDir: filepath.Join(dir, fmt.Sprintf("r%d", i)),
			drained: make(chan struct{}),
		}
		cmd := exec.Command(bin,
			"-id", strconv.Itoa(i), "-n", strconv.Itoa(n),
			"-listen", node.listen, "-peers", peers,
			"-seed", strconv.FormatInt(seed, 10),
			"-data-dir", node.dataDir,
			"-metrics-addr", node.metrics,
		)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		cmd.SysProcAttr = dieWithParent()
		stderr, err := cmd.StderrPipe()
		if err != nil {
			c.kill()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			c.kill()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		node.cmd = cmd
		c.nodes = append(c.nodes, node)
		go node.drain(bufio.NewReaderSize(stderr, 1<<16))
	}
	return c, nil
}

func (c *cluster) peers() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.listen
	}
	return out
}

// waitApplied waits until every node has applied at least want
// transactions.
func (c *cluster) waitApplied(want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, n := range c.nodes {
		for n.appliedTotal() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %d applied %d of %d txs within %v (log tail: %s)",
					n.id, n.appliedTotal(), want, timeout, strings.Join(n.lastLines(), " | "))
			}
			select {
			case <-n.drained:
				return fmt.Errorf("replica %d exited (log tail: %s)", n.id, strings.Join(n.lastLines(), " | "))
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

func (n *nodeProc) lastLines() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.tail...)
}

// kill stops every node at once (SIGKILL) and waits for it.
func (c *cluster) kill() {
	for _, n := range c.nodes {
		if n.cmd != nil && n.cmd.Process != nil {
			_ = n.cmd.Process.Kill()
		}
	}
	for _, n := range c.nodes {
		if n.cmd != nil {
			<-n.drained
			_ = n.cmd.Wait()
		}
	}
}

// stop shuts every node down gracefully (SIGTERM: drain the event loop,
// flush and close the store) and waits; a node that has not exited by the
// timeout is killed and reported.
func (c *cluster) stop(timeout time.Duration) error {
	for _, n := range c.nodes {
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
	}
	var slow []int
	deadline := time.After(timeout)
	for _, n := range c.nodes {
		select {
		case <-n.drained:
		case <-deadline:
			slow = append(slow, n.id)
			_ = n.cmd.Process.Kill()
			<-n.drained
		}
		_ = n.cmd.Wait()
	}
	if len(slow) > 0 {
		return fmt.Errorf("replicas %v did not shut down within %v", slow, timeout)
	}
	return nil
}

// submitAll broadcasts txs to every replica over fresh client connections
// and checks that each submit is acked OK. Dials retry until the nodes
// listen.
func submitAll(addrs []string, txs []*utxo.Transaction, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, addr := range addrs {
		var conn net.Conn
		var err error
		for {
			conn, err = net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("dialing replica %d: %w", i+1, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		err = submitOn(conn, txs, deadline)
		conn.Close()
		if err != nil {
			return fmt.Errorf("replica %d: %w", i+1, err)
		}
	}
	return nil
}

func submitOn(conn net.Conn, txs []*utxo.Transaction, deadline time.Time) error {
	_ = conn.SetDeadline(deadline)
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	for _, tx := range txs {
		if err := enc.Encode(clientEnvelope{Msg: &transport.SubmitTx{Tx: tx}}); err != nil {
			return err
		}
		var env clientEnvelope
		if err := dec.Decode(&env); err != nil {
			return fmt.Errorf("reading ack: %w", err)
		}
		if ack, ok := env.Msg.(*transport.SubmitAck); !ok || !ack.OK {
			return fmt.Errorf("submit refused: %+v", env.Msg)
		}
	}
	return nil
}

// dieWithParent makes a child process receive SIGKILL if the harness
// dies first, so an interrupted run leaves no node or generator behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
