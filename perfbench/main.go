// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the code of the checkout it was built from and
// prints, as the last line of standard output, one JSON object with the
// workload's correctness verdict and metrics.
//
//	bash perfbench/run.sh --workload tcp-saturate --seed 1 --seconds 45 --trace 0
//
// Two workloads drive a real 4-replica zlb-node cluster over loopback TCP
// from outside (tcp-steady: open loop at a fixed rate; tcp-saturate:
// closed loop with a fixed number of transactions in flight). The third
// (sim-fig3-n30) runs the fig3 ZLB point at n=30 on the simulator
// in-process. BENCHMARK.json declares tcp-saturate and sim-fig3-n30
// only: tcp-steady's figures follow the CPU a shared host grants too
// closely to gate a change on (README.md, "The rate of tcp-steady"), so
// it is run by hand. With -trace 0 the metrics are the end-to-end set, with
// -trace 1 the per-layer set of a separate traced run; both sets are
// declared in BENCHMARK.json at the checkout root, which the harness
// checks its tables against. README.md in this directory holds the
// metric definitions, the layer→metric prediction table and known
// defects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run (-trace 0). README.md defines each per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"committed_tps", "tx/s"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"commit_p999_ms", "ms"},
	{"cpu_us_per_tx", "us"},
	{"wire_bytes_per_tx", "B"},
	{"alloc_kb_per_tx", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics (-trace 1). A layer a
// workload does not cross reports 0 (README.md lists which).
var perLayer = []metricDef{
	{"load.late_p99_ms", "ms"},
	{"load.late_max_ms", "ms"},
	{"load.gen_cpu_s", "s"},
	{"load.failed_ratio", "ratio"},
	{"transport.frames_per_tx", "count"},
	{"transport.bytes_per_frame", "B"},
	{"transport.send_drops", "count"},
	{"transport.events_dropped", "count"},
	{"transport.submit_backpressure", "count"},
	{"transport.decode_errors", "count"},
	{"transport.submit_ack_rtt_us", "us"},
	{"transport.init_frame_us_per_tx", "us"},
	{"wire.encode_batch_ns_per_tx", "ns"},
	{"wire.decode_batch_ns_per_tx", "ns"},
	{"wire.batch_bytes_per_tx", "B"},
	{"mempool.add_us", "us"},
	{"mempool.take_us", "us"},
	{"mempool.prune_us_per_tx", "us"},
	{"mempool.pending_peak", "count"},
	{"crypto.ed25519_verify_us", "us"},
	{"utxo.verify_sig_us_per_tx", "us"},
	{"utxo.verifies_per_tx", "count"},
	{"pipeline.speculate_batch_us_per_tx", "us"},
	{"bm.commit_block_us_per_tx", "us"},
	{"bm.txs_per_block", "count"},
	{"store.append_flush_us_per_block", "us"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoint_bytes", "B"},
	{"rbc.init_us", "us"},
	{"rbc.init.calls", "count"},
	{"rbc.echo_us", "us"},
	{"rbc.echo.calls", "count"},
	{"rbc.ready_us", "us"},
	{"rbc.ready.calls", "count"},
	{"rbc.payload_us", "us"},
	{"rbc.payload.calls", "count"},
	{"bincon.est_us", "us"},
	{"bincon.est.calls", "count"},
	{"bincon.coord_us", "us"},
	{"bincon.coord.calls", "count"},
	{"bincon.aux_us", "us"},
	{"bincon.aux.calls", "count"},
	{"bincon.decide_us", "us"},
	{"bincon.decide.calls", "count"},
	{"asmr.timer_us", "us"},
	{"asmr.timer.calls", "count"},
	{"asmr.other_us", "us"},
	{"asmr.other.calls", "count"},
	{"simnet.events", "count"},
	{"simnet.handler_share", "ratio"},
	{"accountability.record_certificate_us", "us"},
	{"accountability.record_us", "us"},
	{"accountability.calls", "count"},
	{"node.cpu.consensus_sig", "%"},
	{"node.cpu.tx_sig", "%"},
	{"node.cpu.sched_spin", "%"},
	{"node.cpu.gob", "%"},
	{"node.cpu.syscall", "%"},
	{"node.cpu.gc", "%"},
	{"node.cpu.store", "%"},
	{"node.cpu.bm", "%"},
	{"node.cpu.mempool", "%"},
	{"node.cpu.accountability", "%"},
	{"node.cpu.consensus", "%"},
	{"node.cpu.simnet", "%"},
	{"node.cpu.other", "%"},
	{"node.propose_to_commit_p50_ms", "ms"},
	{"cost.replayed_us_per_tx", "us"},
	{"cost.unaccounted_us_per_tx", "us"},
	{"traced.committed_tps", "tx/s"},
	{"traced.commit_p50_ms", "ms"},
	{"traced.cpu_us_per_tx", "us"},
}

// runConfig is what every workload receives.
type runConfig struct {
	Root    string // checkout root (holds go.mod and BENCHMARK.json)
	Build   string // .bench_build under Root: binaries, data dirs
	NodeBin string
	SelfBin string
	Seed    int64
	Seconds int
	Trace   bool
}

// outcome is a workload's verdict and raw metric values; metrics it does
// not set are reported as 0 in the traced set and are an error in the
// end-to-end set.
type outcome struct {
	Correct   bool
	Problems  []string
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"tcp-steady", func(c runConfig) (*outcome, error) { return runTCP(c, steadySpec) }},
	{"tcp-saturate", func(c runConfig) (*outcome, error) { return runTCP(c, saturateSpec) }},
	{"sim-fig3-n30", runSim},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench gen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload name: tcp-steady, tcp-saturate or sim-fig3-n30")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "checkout root")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, trace bool, root string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if err := checkDeclared(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown -workload %q", name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	cfg := runConfig{
		Root:    root,
		Build:   build,
		NodeBin: filepath.Join(build, "bin", "zlb-node"),
		SelfBin: self,
		Seed:    seed,
		Seconds: seconds,
		Trace:   trace,
	}
	start := time.Now()
	total0, steal0 := hostSteal()
	out, err := w.run(cfg)
	if err != nil {
		return err
	}
	total1, steal1 := hostSteal()
	fmt.Printf("# %s finished in %.1f s; host CPU steal during the run %.1f%%\n",
		name, time.Since(start).Seconds(), 100*(steal1-steal0)/math.Max(total1-total0, 1))
	return report(out, trace)
}

// report prints the human-readable metric table and the final JSON line.
// A failed correctness check still prints the result (correct=false) and
// then makes the process exit non-zero.
func report(o *outcome, trace bool) error {
	set := endToEnd
	if trace {
		set = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	for _, p := range o.Problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	metrics := make(map[string]value, len(set))
	for _, m := range set {
		v, ok := o.Metrics[m.Name]
		if !ok && !trace {
			return fmt.Errorf("workload did not measure end-to-end metric %s", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
		metrics[m.Name] = value{Value: v, Unit: m.Unit}
		fmt.Printf("%-40s %14.4f %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.Correct {
		return fmt.Errorf("%d correctness check(s) failed", len(o.Problems))
	}
	return nil
}

// checkDeclared verifies that BENCHMARK.json declares exactly the metric
// tables above, so the harness and the declaration cannot drift apart.
func checkDeclared(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading benchmark declaration: %w", err)
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	same := func(a, b []metricDef) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(decl.EndToEnd, endToEnd) || !same(decl.PerLayer, perLayer) {
		return fmt.Errorf("%s declares other metrics than perfbench reports", path)
	}
	return nil
}
