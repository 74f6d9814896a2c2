package accountability

import (
	"slices"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// Log is one replica's accountable message log. Every valid signed
// statement the replica sees — directly from the network or inside a
// certificate — is recorded here; when a second statement from the same
// signer for the same slot with a different value shows up, the log emits
// a proof of fraud. This is the replicas "cross-checking their
// certificates" of paper §4.1 .
//
// The index holds one record per equivocation slot, not one per (slot,
// signer): a DECIDE certificate's quorum shares one slot and one value,
// and conflicting values appear only under attack. A slot record keeps
// the first value seen for the slot, a bitmap of the signers seen, and
// the evidence in arrival order — a signed statement, or a whole
// certificate by reference. A signer's first statement for the slot is
// the one carried by the first evidence covering that signer. Once the
// slot sees a second value, the record grows a per-signer table of those
// first evidences, and a signer's statement is rebuilt (for aggregate
// certificates through crypto.SignatureExtractor) only when a second
// value reaches a signer who signed the first.
//
// Bitmaps and tables are indexed by replica ID and sized to the largest
// ID seen. IDs are dense small integers everywhere in this system:
// committee members are numbered 1..n and standby candidates n+1 onwards.
//
// Log is not safe for concurrent use; in the simulator each node owns one
// and all its protocol components share it.
type Log struct {
	verifier *crypto.Signer
	// index maps each equivocation slot to its record in slots. Records,
	// evidence and signer bitmaps live by value in slice arenas, so
	// recording a conflict-free slot allocates only when an arena grows.
	index map[SlotKey]int32
	slots []slotRecord
	ev    []evidence
	bits  []uint64
	// width is the bitmap size, in words, given to new slots: enough for
	// the largest signer ID seen so far.
	width int32
	// pofs accumulated, one per culprit (the first found is kept)
	pofs map[types.ReplicaID]PoF
	// treated marks culprits whose proofs were handled by a completed
	// membership change (Forget). Proofs for a treated culprit arriving
	// afterwards — gossip still in flight, certificates replayed during
	// catch-up — must not resurrect the culprit: re-firing onPoF would
	// count an already-excluded replica towards a fresh exclusion
	// threshold and trigger a spurious membership change.
	treated map[types.ReplicaID]bool
	// proven is the monotone record of every replica ever proven deceitful
	// by this log. Unlike pofs it survives Forget: exclusion discards the
	// *proofs* (they were consumed by the membership change) but the fact
	// that the replica equivocated is permanent, and it is what audits and
	// the conformance invariants ("no honest replica is ever accused")
	// check against.
	proven map[types.ReplicaID]bool
	// onPoF, if set, fires once per new culprit.
	onPoF func(PoF)
	// verified statements count (one per signer of a certificate), for
	// metrics
	Recorded int
}

// slotRecord is the log's state for one equivocation slot.
type slotRecord struct {
	value types.Digest // first value seen for the slot
	// signers is the set of signers seen while the slot holds one value:
	// words l.bits[bits:bits+width], bit id%64 of word id/64.
	bits, width int32
	head, tail  int32 // evidence list in l.ev, in arrival order; -1 when empty
	// conflict is nil until the slot sees a second value.
	conflict *slotConflict
}

// slotConflict is the extra state of a slot that holds more than one
// value.
type slotConflict struct {
	others []types.Digest // further values, in arrival order
	// firsts[id] locates signer id's first evidence; ev is -1 for a
	// signer not seen. It replaces the bitmap.
	firsts []firstRef
}

// firstRef locates a signer in the evidence arena: entry ev of l.ev, at
// position pos among that evidence's signers.
type firstRef struct{ ev, pos int32 }

// valueAt returns the slot's i-th distinct value.
func (r *slotRecord) valueAt(i uint32) types.Digest {
	if i == 0 {
		return r.value
	}
	return r.conflict.others[i-1]
}

// first returns signer id's first evidence for a slot in conflict.
func (c *slotConflict) first(id types.ReplicaID) (firstRef, bool) {
	if int(id) < len(c.firsts) && c.firsts[id].ev >= 0 {
		return c.firsts[id], true
	}
	return firstRef{}, false
}

// setFirst records f as signer id's first evidence.
func (c *slotConflict) setFirst(id types.ReplicaID, f firstRef) {
	for int(id) >= len(c.firsts) {
		c.firsts = append(c.firsts, firstRef{ev: -1})
	}
	c.firsts[id] = f
}

// evidence is one recorded statement or certificate. A certificate is
// kept by reference and covers all of its signers.
type evidence struct {
	cert   *Certificate     // nil for a single statement
	sig    crypto.Signature // the statement's signature
	signer types.ReplicaID  // the statement's signer
	value  uint32           // index of the value in the slot record
	next   int32            // next evidence for the same slot, or -1
}

func (e *evidence) size() int {
	switch {
	case e.cert == nil:
		return 1
	case e.cert.Agg == nil:
		return len(e.cert.Sigs)
	default:
		return len(e.cert.Agg.Signers)
	}
}

func (e *evidence) signerAt(i int) types.ReplicaID {
	switch {
	case e.cert == nil:
		return e.signer
	case e.cert.Agg == nil:
		return e.cert.Sigs[i].Signer
	default:
		return e.cert.Agg.Signers[i]
	}
}

// NewLog creates an empty log. verifier supplies signature verification
// and aggregate-certificate expansion; onPoF (optional) observes each
// newly proven culprit exactly once and must not call back into the log.
func NewLog(verifier *crypto.Signer, onPoF func(PoF)) *Log {
	return &Log{
		verifier: verifier,
		index:    make(map[SlotKey]int32),
		width:    1,
		pofs:     make(map[types.ReplicaID]PoF),
		treated:  make(map[types.ReplicaID]bool),
		proven:   make(map[types.ReplicaID]bool),
		onPoF:    onPoF,
	}
}

// Record ingests a signed statement whose signature has already been
// verified by the caller (protocols verify on receipt; certificates are
// verified wholesale). It returns a PoF if this statement completes one,
// or nil.
func (l *Log) Record(s Signed) *PoF {
	l.Recorded++
	return l.record(s.Stmt.Key(), s.Stmt.Value, evidence{sig: s.Sig, signer: s.Signer})
}

// RecordVerify verifies the signature first, then records. It returns
// false when the signature is invalid.
func (l *Log) RecordVerify(s Signed) bool {
	if !s.Verify(l.verifier) {
		return false
	}
	l.Record(s)
	return true
}

// RecordCertificate ingests every signature of a certificate the caller
// has verified, as if each were recorded in turn, and keeps the
// certificate by reference: it must not be modified afterwards. An
// aggregate-form certificate's per-signer statements are extracted
// through the log's verifier (crypto.SignatureExtractor) only when they
// become evidence in a proof of fraud; a scheme that cannot extract
// contributes nothing (its aggregates carry no per-signer evidence by
// construction).
func (l *Log) RecordCertificate(c *Certificate) {
	if c.Agg != nil {
		if _, ok := l.verifier.Scheme().(crypto.SignatureExtractor); !ok {
			return
		}
	}
	e := evidence{cert: c}
	l.Recorded += e.size()
	l.record(c.Stmt.Key(), c.Stmt.Value, e)
}

// record files evidence for value v at slot key and returns the last PoF
// it completes, or nil.
func (l *Log) record(key SlotKey, v types.Digest, e evidence) *PoF {
	idx, ok := l.index[key]
	if !ok {
		idx = int32(len(l.slots))
		l.index[key] = idx
		l.slots = append(l.slots, slotRecord{value: v, bits: int32(len(l.bits)), width: l.width, head: -1, tail: -1})
		for range l.width {
			l.bits = append(l.bits, 0)
		}
	}
	rec := &l.slots[idx]
	if rec.conflict != nil || rec.value != v {
		return l.conflict(key, idx, v, e)
	}
	// Every signer seen so far signed v: nothing here can conflict, and
	// the evidence is kept only if it names a new signer.
	fresh := false
	seen := l.bits[rec.bits : rec.bits+rec.width]
	for i := range e.size() {
		id := e.signerAt(i)
		w, bit := int(id/64), uint64(1)<<(id%64)
		if w >= len(seen) {
			seen = l.widen(rec, int32(w+1))
		}
		if seen[w]&bit == 0 {
			seen[w] |= bit
			fresh = true
		}
	}
	if fresh {
		l.push(rec, e)
	}
	return nil
}

// widen moves rec's signer bitmap to the end of the arena, grown to at
// least width words, and returns it.
func (l *Log) widen(rec *slotRecord, width int32) []uint64 {
	l.width = max(l.width, width)
	off := int32(len(l.bits))
	l.bits = append(l.bits, l.bits[rec.bits:rec.bits+rec.width]...)
	for range l.width - rec.width {
		l.bits = append(l.bits, 0)
	}
	rec.bits, rec.width = off, l.width
	return l.bits[off : off+l.width]
}

// conflict is record for a slot that holds, or is about to hold, more
// than one value: each signer already seen is checked against the value
// of its first evidence.
func (l *Log) conflict(key SlotKey, idx int32, v types.Digest, e evidence) *PoF {
	c := l.slots[idx].conflict
	if c == nil {
		c = l.openConflict(&l.slots[idx])
	}
	pending := int32(len(l.ev)) // where e lands if pushed
	var last *PoF
	fresh := false
	for i := range e.size() {
		id := e.signerAt(i)
		f, seen := c.first(id)
		if !seen {
			c.setFirst(id, firstRef{ev: pending, pos: int32(i)})
			fresh = true
			continue
		}
		if f.ev == pending {
			continue // repeated within this evidence
		}
		a := &l.ev[f.ev]
		av := l.slots[idx].valueAt(a.value)
		if av == v {
			continue // same statement again; harmless
		}
		as, ok := l.expand(key, av, a, f.pos)
		if !ok {
			continue
		}
		bs, ok := l.expand(key, v, &e, int32(i))
		if !ok {
			continue
		}
		if p := l.prove(as, bs); p != nil {
			last = p
		}
	}
	if fresh {
		rec := &l.slots[idx]
		switch i := slices.Index(c.others, v); {
		case rec.value == v:
			e.value = 0
		case i >= 0:
			e.value = uint32(i + 1)
		default:
			c.others = append(c.others, v)
			e.value = uint32(len(c.others))
		}
		l.push(rec, e)
	}
	return last
}

// openConflict gives rec its conflict state, filling the first-evidence
// table from the evidence list.
func (l *Log) openConflict(rec *slotRecord) *slotConflict {
	c := &slotConflict{firsts: make([]firstRef, 0, 64*rec.width)}
	for i := rec.head; i >= 0; i = l.ev[i].next {
		e := &l.ev[i]
		for p := range e.size() {
			id := e.signerAt(p)
			if _, seen := c.first(id); !seen {
				c.setFirst(id, firstRef{ev: i, pos: int32(p)})
			}
		}
	}
	rec.conflict = c
	return c
}

// push appends e to the slot's evidence list.
func (l *Log) push(rec *slotRecord, e evidence) {
	i := int32(len(l.ev))
	e.next = -1
	l.ev = append(l.ev, e)
	if rec.tail < 0 {
		rec.head = i
	} else {
		l.ev[rec.tail].next = i
	}
	rec.tail = i
}

// expand rebuilds the statement for value v at slot key of the signer at
// position pos of evidence e. It reports false when the scheme cannot
// extract the signer from an aggregate.
func (l *Log) expand(key SlotKey, v types.Digest, e *evidence, pos int32) (Signed, bool) {
	switch {
	case e.cert == nil:
		return Signed{Stmt: key.statement(v), Signer: e.signer, Sig: e.sig}, true
	case e.cert.Agg == nil:
		return e.cert.Sigs[pos], true
	default:
		ex, ok := l.verifier.Scheme().(crypto.SignatureExtractor)
		if !ok {
			return Signed{}, false
		}
		id := e.cert.Agg.Signers[pos]
		sig, ok := ex.ExtractSignature(l.verifier.Registry(), id, e.cert.Stmt.Digest())
		return Signed{Stmt: e.cert.Stmt, Signer: id, Sig: sig}, ok
	}
}

// prove turns a signer's first statement a and a conflicting statement b
// into a PoF, storing it and firing onPoF when the culprit is new. It
// returns nil when a and b are no proof or the culprit was already
// treated.
func (l *Log) prove(a, b Signed) *PoF {
	pof, err := NewPoF(a, b)
	if err != nil {
		return nil
	}
	if l.treated[pof.Culprit] {
		return nil // already excluded; evidence is stale
	}
	if _, known := l.pofs[pof.Culprit]; !known {
		l.pofs[pof.Culprit] = pof
		l.proven[pof.Culprit] = true
		if l.onPoF != nil {
			l.onPoF(pof)
		}
	}
	return &pof
}

// AddPoF ingests an externally received, already verified PoF (replicas
// broadcast their new PoFs during membership changes, Alg. 1 line 26).
// It reports whether the culprit was new. Duplicate proofs for the same
// culprit and proofs arriving after the culprit's exclusion (Forget) are
// both ignored, so late gossip can never re-trigger onPoF.
func (l *Log) AddPoF(p PoF) bool {
	if _, known := l.pofs[p.Culprit]; known {
		return false
	}
	if l.treated[p.Culprit] {
		return false
	}
	l.pofs[p.Culprit] = p
	l.proven[p.Culprit] = true
	if l.onPoF != nil {
		l.onPoF(p)
	}
	return true
}

// Culprits returns the proven-deceitful replicas, sorted.
func (l *Log) Culprits() []types.ReplicaID {
	ids := make([]types.ReplicaID, 0, len(l.pofs))
	for id := range l.pofs {
		ids = append(ids, id)
	}
	return types.SortReplicas(ids)
}

// CulpritCount returns how many distinct replicas have been proven
// deceitful.
func (l *Log) CulpritCount() int { return len(l.pofs) }

// PoFs returns the stored proofs in culprit order.
func (l *Log) PoFs() []PoF {
	out := make([]PoF, 0, len(l.pofs))
	for _, id := range l.Culprits() {
		out = append(out, l.pofs[id])
	}
	return out
}

// PoFFor returns the proof for a culprit, if any.
func (l *Log) PoFFor(id types.ReplicaID) (PoF, bool) {
	p, ok := l.pofs[id]
	return p, ok
}

// Forget removes proofs for culprits that have been handled by a completed
// membership change (Alg. 1 line 39 discards treated PoFs). Forgotten
// culprits are remembered as treated: Record and AddPoF ignore further
// evidence against them, making exclusion idempotent under replayed
// gossip and certificates re-examined during catch-up.
func (l *Log) Forget(ids []types.ReplicaID) {
	for _, id := range ids {
		delete(l.pofs, id)
		l.treated[id] = true
	}
}

// Treated reports whether a culprit's proofs were already handled by a
// completed membership change.
func (l *Log) Treated(id types.ReplicaID) bool { return l.treated[id] }

// ProvenCulprits returns every replica ever proven deceitful by this log,
// sorted — including culprits whose proofs were since consumed by a
// membership change (Forget). This is the monotone audit view the
// end-of-run metrics and the conformance invariants use.
func (l *Log) ProvenCulprits() []types.ReplicaID {
	ids := make([]types.ReplicaID, 0, len(l.proven))
	for id := range l.proven {
		ids = append(ids, id)
	}
	return types.SortReplicas(ids)
}

// ProvenCount returns how many distinct replicas were ever proven
// deceitful, regardless of later Forget calls.
func (l *Log) ProvenCount() int { return len(l.proven) }
