package accountability

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// simCluster registers sim-scheme keys for ids and returns one signer per
// id. wrap, if set, wraps the sim scheme the signers use.
func simCluster(tb testing.TB, wrap func(crypto.Scheme) crypto.Scheme, ids ...types.ReplicaID) []*crypto.Signer {
	tb.Helper()
	reg := crypto.NewRegistry(crypto.SchemeSim)
	scheme, err := crypto.NewScheme(crypto.SchemeSim, reg)
	if err != nil {
		tb.Fatal(err)
	}
	if wrap != nil {
		scheme = wrap(scheme)
	}
	rnd := crypto.NewDeterministicRand(1)
	out := make([]*crypto.Signer, len(ids))
	for i, id := range ids {
		kp, err := scheme.GenerateKey(rnd)
		if err != nil {
			tb.Fatal(err)
		}
		if err := reg.Register(id, kp); err != nil {
			tb.Fatal(err)
		}
		out[i] = crypto.NewSigner(id, kp, scheme, reg)
	}
	return out
}

// diffFixture is the statement space the differential test draws from:
// a few slots and values, and signers whose IDs include two far above
// the rest, so signer bitmaps and conflict tables widen mid-stream.
type diffFixture struct {
	signers []*crypto.Signer
	keys    []SlotKey
	values  []types.Digest
	signed  map[[3]int]Signed
}

func newDiffFixture(tb testing.TB) *diffFixture {
	return &diffFixture{
		signers: simCluster(tb, nil, 1, 2, 3, 4, 5, 6, 7, 130, 257),
		keys: []SlotKey{
			{Context: CtxMain, Kind: KindAux, Instance: 1, Slot: 0, Round: 1},
			{Context: CtxMain, Kind: KindReady, Instance: 1, Slot: 3},
			{Context: CtxExclusion, Kind: KindConfirm, Instance: 2},
		},
		values: []types.Digest{BoolDigest(false), BoolDigest(true), types.Hash([]byte("block"))},
		signed: make(map[[3]int]Signed),
	}
}

func (f *diffFixture) sign(tb testing.TB, key, value, signer int) Signed {
	k := [3]int{key, value, signer}
	if s, ok := f.signed[k]; ok {
		return s
	}
	s, err := SignStatement(f.signers[signer], f.keys[key].statement(f.values[value]))
	if err != nil {
		tb.Fatal(err)
	}
	f.signed[k] = s
	return s
}

// byteStream hands out the fuzz input one byte at a time.
type byteStream []byte

func (b *byteStream) next() (int, bool) {
	if len(*b) == 0 {
		return 0, false
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v), true
}

// runDifferential decodes data into a stream of log operations, applies
// each to a Log and to the reference refLog, and fails on the first
// observable difference.
func runDifferential(tb testing.TB, f *diffFixture, data []byte) {
	tb.Helper()
	verifier := f.signers[0]
	var gotFired, wantFired []PoF
	got := NewLog(verifier, func(p PoF) { gotFired = append(gotFired, p) })
	want := newRefLog(verifier, func(p PoF) { wantFired = append(wantFired, p) })
	in := byteStream(data)
	pick := func(n int) int {
		v, _ := in.next()
		return v % n
	}
	// subset draws a non-empty signer subset in a drawn order.
	subset := func() []int {
		mask := pick(256) | pick(2)<<8
		rot := pick(len(f.signers))
		var out []int
		for i := range f.signers {
			j := (i + rot) % len(f.signers)
			if mask&(1<<j) != 0 {
				out = append(out, j)
			}
		}
		if len(out) == 0 {
			out = append(out, rot)
		}
		return out
	}
	for step := 0; ; step++ {
		op, ok := in.next()
		if !ok {
			return
		}
		var desc string
		switch op % 6 {
		case 0: // a statement, possibly a duplicate or a conflict
			key, value, signer := pick(len(f.keys)), pick(len(f.values)), pick(len(f.signers))
			s := f.sign(tb, key, value, signer)
			desc = fmt.Sprintf("Record(%v by %v)", s.Stmt, s.Signer)
			g, w := got.Record(s), want.Record(s)
			if !reflect.DeepEqual(g, w) {
				tb.Fatalf("step %d %s returned %v, reference %v", step, desc, g, w)
			}
		case 1, 2: // a certificate in signed (1) or aggregate (2) form
			key, value := pick(len(f.keys)), pick(len(f.values))
			stmt := f.keys[key].statement(f.values[value])
			var sigs []Signed
			for _, i := range subset() {
				sigs = append(sigs, f.sign(tb, key, value, i))
			}
			c, err := NewCertificateFor(verifier, stmt, sigs, op%6 == 2)
			if err != nil {
				tb.Fatal(err)
			}
			desc = fmt.Sprintf("RecordCertificate(%v, aggregate %v, signers %v)", stmt, c.IsAggregate(), c.Signers())
			got.RecordCertificate(c)
			want.RecordCertificate(c)
		case 3: // a completed membership change
			var ids []types.ReplicaID
			for _, i := range subset() {
				ids = append(ids, f.signers[i].ID())
			}
			desc = fmt.Sprintf("Forget(%v)", ids)
			got.Forget(ids)
			want.Forget(ids)
		case 4: // a gossiped proof of fraud
			key, value, signer := pick(len(f.keys)), pick(len(f.values)), pick(len(f.signers))
			other := (value + 1 + pick(len(f.values)-1)) % len(f.values)
			p, err := NewPoF(f.sign(tb, key, value, signer), f.sign(tb, key, other, signer))
			if err != nil {
				tb.Fatal(err)
			}
			desc = fmt.Sprintf("AddPoF(%v)", p)
			if g, w := got.AddPoF(p), want.AddPoF(p); g != w {
				tb.Fatalf("step %d %s returned %v, reference %v", step, desc, g, w)
			}
		case 5: // a statement whose signature may be corrupt
			key, value, signer := pick(len(f.keys)), pick(len(f.values)), pick(len(f.signers))
			s := f.sign(tb, key, value, signer)
			if pick(2) == 1 {
				s.Sig = append(crypto.Signature(nil), s.Sig...)
				s.Sig[0] ^= 1
			}
			desc = fmt.Sprintf("RecordVerify(%v by %v)", s.Stmt, s.Signer)
			if g, w := got.RecordVerify(s), want.RecordVerify(s); g != w {
				tb.Fatalf("step %d %s returned %v, reference %v", step, desc, g, w)
			}
		}
		if got.Recorded != want.Recorded {
			tb.Fatalf("step %d %s: Recorded %d, reference %d", step, desc, got.Recorded, want.Recorded)
		}
		if !reflect.DeepEqual(gotFired, wantFired) {
			tb.Fatalf("step %d %s: onPoF fired\n%v\nreference\n%v", step, desc, gotFired, wantFired)
		}
		if g, w := got.PoFs(), want.PoFs(); !reflect.DeepEqual(g, w) {
			tb.Fatalf("step %d %s: PoFs\n%v\nreference\n%v", step, desc, g, w)
		}
		if g, w := got.Culprits(), want.Culprits(); !reflect.DeepEqual(g, w) {
			tb.Fatalf("step %d %s: Culprits %v, reference %v", step, desc, g, w)
		}
		if g, w := got.ProvenCulprits(), want.ProvenCulprits(); !reflect.DeepEqual(g, w) {
			tb.Fatalf("step %d %s: ProvenCulprits %v, reference %v", step, desc, g, w)
		}
		if g, w := got.CulpritCount(), want.CulpritCount(); g != w {
			tb.Fatalf("step %d %s: CulpritCount %d, reference %d", step, desc, g, w)
		}
		if g, w := got.ProvenCount(), want.ProvenCount(); g != w {
			tb.Fatalf("step %d %s: ProvenCount %d, reference %d", step, desc, g, w)
		}
		for _, s := range f.signers {
			id := s.ID()
			if g, w := got.Treated(id), want.Treated(id); g != w {
				tb.Fatalf("step %d %s: Treated(%v) %v, reference %v", step, desc, id, g, w)
			}
			gp, gok := got.PoFFor(id)
			wp, wok := want.PoFFor(id)
			if gok != wok || !reflect.DeepEqual(gp, wp) {
				tb.Fatalf("step %d %s: PoFFor(%v) %v %v, reference %v %v", step, desc, id, gp, gok, wp, wok)
			}
		}
	}
}

// TestLogDifferential holds the per-slot log to the per-(slot, signer)
// reference over seeded random operation streams: statements,
// duplicates, conflicts, certificates of both forms mixing seen and new
// signers, Forget and AddPoF.
func TestLogDifferential(t *testing.T) {
	f := newDiffFixture(t)
	for seed := int64(1); seed <= 300; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runDifferential(t, f, data)
	}
}

// FuzzLogDifferential is TestLogDifferential over fuzzer-chosen streams.
func FuzzLogDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	fx := newDiffFixture(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, fx, data)
	})
}

// countingScheme counts ExtractSignature calls on the sim scheme.
type countingScheme struct {
	crypto.Scheme
	extracts int
}

func (c *countingScheme) Aggregate(signers []types.ReplicaID, sigs []crypto.Signature) (crypto.Signature, error) {
	return c.Scheme.(crypto.Aggregator).Aggregate(signers, sigs)
}

func (c *countingScheme) VerifyAggregate(reg *crypto.Registry, signers []types.ReplicaID, digest types.Digest, agg crypto.Signature) bool {
	return c.Scheme.(crypto.Aggregator).VerifyAggregate(reg, signers, digest, agg)
}

func (c *countingScheme) ExtractSignature(reg *crypto.Registry, signer types.ReplicaID, digest types.Digest) (crypto.Signature, bool) {
	c.extracts++
	return c.Scheme.(crypto.SignatureExtractor).ExtractSignature(reg, signer, digest)
}

func replicaRange(from, to int) []types.ReplicaID {
	var ids []types.ReplicaID
	for i := from; i <= to; i++ {
		ids = append(ids, types.ReplicaID(i))
	}
	return ids
}

// TestAggregateExpansionIsLazy: conflict-free aggregate certificates are
// recorded without extracting a single signature, and a conflicting one
// yields the PoFs the signed form does, byte for byte.
func TestAggregateExpansionIsLazy(t *testing.T) {
	const n = 30
	counter := &countingScheme{}
	signers := simCluster(t, func(s crypto.Scheme) crypto.Scheme {
		counter.Scheme = s
		return counter
	}, replicaRange(1, n)...)
	quorum := types.Quorum(n)
	qa := replicaRange(1, quorum)
	qb := replicaRange(n-quorum+1, n)
	cert := func(stmt Statement, ids []types.ReplicaID, aggregate bool) *Certificate {
		c, err := NewCertificateFor(signers[0], stmt, quorumSigs(t, signers, ids, stmt), aggregate)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pofs := func(aggregate bool) []PoF {
		log := NewLog(signers[0], nil)
		for inst := types.Instance(1); inst <= 20; inst++ {
			c := cert(auxStmt(inst, 0, 1, true), qa, aggregate)
			log.RecordCertificate(c)
			log.RecordCertificate(c)
			log.RecordCertificate(cert(auxStmt(inst, 0, 1, true), qb, aggregate))
		}
		if aggregate && counter.extracts != 0 {
			t.Fatalf("conflict-free aggregate certificates extracted %d signatures", counter.extracts)
		}
		log.RecordCertificate(cert(auxStmt(7, 0, 1, false), qb, aggregate))
		return log.PoFs()
	}
	signed, agg := pofs(false), pofs(true)
	// every signer of qb vouched for true at instance 7 and is caught
	if len(signed) != len(qb) {
		t.Fatalf("%d PoFs from the signed form, want %d", len(signed), len(qb))
	}
	if !reflect.DeepEqual(signed, agg) {
		t.Fatalf("aggregate PoFs differ from the signed form:\n got %v\nwant %v", agg, signed)
	}
}

// TestRecordCertificateHeldSlotAllocs: recording a certificate for a slot
// the log already holds, whose signers it has seen, allocates nothing.
func TestRecordCertificateHeldSlotAllocs(t *testing.T) {
	const n = 30
	signers := simCluster(t, nil, replicaRange(1, n)...)
	stmt := auxStmt(3, 0, 1, true)
	ids := replicaRange(1, types.Quorum(n))
	for _, aggregate := range []bool{false, true} {
		log := NewLog(signers[0], nil)
		sigs := quorumSigs(t, signers, ids, stmt)
		for _, s := range sigs {
			log.Record(s)
		}
		first, err := NewCertificateFor(signers[0], stmt, sigs, aggregate)
		if err != nil {
			t.Fatal(err)
		}
		again, err := NewCertificateFor(signers[1], stmt, sigs, aggregate)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			log.RecordCertificate(first)
			log.RecordCertificate(again)
		})
		if allocs != 0 {
			t.Errorf("aggregate=%v: %v allocations per held-slot certificate pair, want 0", aggregate, allocs)
		}
	}
}

// logBenchStatements signs count slots' worth of ECHO statements by
// every signer; salt varies the values, so two salts conflict slot by
// slot.
func logBenchStatements(b *testing.B, signers []*crypto.Signer, slots int, salt uint32) []Signed {
	out := make([]Signed, 0, slots*len(signers))
	for slot := range slots {
		value := types.Hash(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(slot)), salt))
		stmt := Statement{Context: CtxMain, Kind: KindEcho, Instance: types.Instance(slot / 30), Slot: uint32(slot % 30), Value: value}
		for _, s := range signers {
			signed, err := SignStatement(s, stmt)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, signed)
		}
	}
	return out
}

// BenchmarkLogRecord measures Log.Record per statement: every signer of
// an n=30 committee vouching for each of a stream of fresh slots, no
// conflict.
func BenchmarkLogRecord(b *testing.B) {
	const n = 30
	signers := simCluster(b, nil, replicaRange(1, n)...)
	stmts := logBenchStatements(b, signers, 4096, 0)
	log := NewLog(signers[0], nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(stmts)
		if j == 0 && i > 0 {
			b.StopTimer()
			log = NewLog(signers[0], nil)
			b.StartTimer()
		}
		log.Record(stmts[j])
	}
}

// BenchmarkLogRecordCertificate measures Log.RecordCertificate per n=30
// quorum certificate, in both forms. "fresh" certificates open a new
// slot each; "held" ones arrive for a slot whose statements the log
// already recorded (a DECIDE certificate after its AUX votes);
// "conflict" ones carry a second value for a slot that already holds a
// certificate for the first, signed by the other end of the committee,
// so the 2q-n signers in both quorums are proven deceitful (an attack
// run). The ids=171-200 variants number the committee as standby
// candidates of an n=100 cluster are numbered.
func BenchmarkLogRecordCertificate(b *testing.B) {
	const n, slots = 30, 1024
	quorum := types.Quorum(n)
	for _, ids := range [][2]int{{1, n}, {171, 170 + n}} {
		signers := simCluster(b, nil, replicaRange(ids[0], ids[1])...)
		stmts := logBenchStatements(b, signers, slots, 0)
		rivals := logBenchStatements(b, signers, slots, 1)
		for _, aggregate := range []bool{false, true} {
			// certs draws one certificate per slot from stmts, signed by
			// the committee's first quorum members, or its last.
			certs := func(stmts []Signed, last bool) []*Certificate {
				out := make([]*Certificate, slots)
				for i := range out {
					sigs := stmts[i*n : i*n+quorum]
					if last {
						sigs = stmts[i*n+n-quorum : i*n+n]
					}
					c, err := NewCertificateFor(signers[0], sigs[0].Stmt, sigs, aggregate)
					if err != nil {
						b.Fatal(err)
					}
					out[i] = c
				}
				return out
			}
			first, second := certs(stmts, false), certs(rivals, true)
			form := "signed"
			if aggregate {
				form = "aggregate"
			}
			for _, mode := range []string{"fresh", "held", "conflict"} {
				name := fmt.Sprintf("ids=%d-%d/%s/%s", ids[0], ids[1], form, mode)
				b.Run(name, func(b *testing.B) {
					recorded := first
					fill := func() *Log {
						log := NewLog(signers[0], nil)
						switch mode {
						case "held":
							for _, s := range stmts {
								log.Record(s)
							}
						case "conflict":
							for _, c := range first {
								log.RecordCertificate(c)
							}
						}
						return log
					}
					if mode == "conflict" {
						recorded = second
					}
					log := fill()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						j := i % slots
						if j == 0 && i > 0 && mode != "held" {
							b.StopTimer()
							log = fill()
							b.StartTimer()
						}
						log.RecordCertificate(recorded[j])
					}
				})
			}
		}
	}
}
