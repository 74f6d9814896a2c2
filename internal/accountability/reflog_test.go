package accountability

import (
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// refLog is the per-(slot, signer) log this package shipped before the
// per-slot index: the reference the differential tests hold Log to. It is
// kept verbatim apart from its names.
type refLog struct {
	verifier *crypto.Signer
	// first statement seen per (slot, signer). A single flat map keyed by
	// the combined (slot, signer) pair: recording a statement is one hash
	// and one insert, with no per-slot inner-map allocation (Record runs
	// for every signed statement every replica sees).
	seen map[slotSigner]Signed
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
	// verified statements count, for metrics
	Recorded int
}

// slotSigner is the log's flat index key: an equivocation slot plus the
// signer being tracked in it.
type slotSigner struct {
	slot   SlotKey
	signer types.ReplicaID
}

// newRefLog creates an empty log. verifier supplies signature verification;
// onPoF (optional) observes each newly proven culprit exactly once.
func newRefLog(verifier *crypto.Signer, onPoF func(PoF)) *refLog {
	return &refLog{
		verifier: verifier,
		seen:     make(map[slotSigner]Signed),
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
func (l *refLog) Record(s Signed) *PoF {
	l.Recorded++
	key := slotSigner{slot: s.Stmt.Key(), signer: s.Signer}
	prev, dup := l.seen[key]
	if !dup {
		l.seen[key] = s
		return nil
	}
	if prev.Stmt.Value == s.Stmt.Value {
		return nil // same statement again; harmless
	}
	pof, err := NewPoF(prev, s)
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

// RecordVerify verifies the signature first, then records. It returns
// false when the signature is invalid.
func (l *refLog) RecordVerify(s Signed) bool {
	if !s.Verify(l.verifier) {
		return false
	}
	l.Record(s)
	return true
}

// RecordCertificate ingests every signature of a certificate. The caller
// is expected to have verified the certificate. Aggregate-form
// certificates are expanded back to per-signer signed statements through
// the log's verifier (crypto.SignatureExtractor), so equivocation
// evidence inside an aggregate still attributes each culprit; a scheme
// that cannot extract contributes nothing (its aggregates carry no
// per-signer evidence by construction).
func (l *refLog) RecordCertificate(c *Certificate) {
	sigs := c.Sigs
	if c.Agg != nil {
		var ok bool
		if sigs, ok = c.ExtractSigned(l.verifier); !ok {
			return
		}
	}
	for _, s := range sigs {
		l.Record(s)
	}
}

// AddPoF ingests an externally received, already verified PoF (replicas
// broadcast their new PoFs during membership changes, Alg. 1 line 26).
// It reports whether the culprit was new. Duplicate proofs for the same
// culprit and proofs arriving after the culprit's exclusion (Forget) are
// both ignored, so late gossip can never re-trigger onPoF.
func (l *refLog) AddPoF(p PoF) bool {
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
func (l *refLog) Culprits() []types.ReplicaID {
	ids := make([]types.ReplicaID, 0, len(l.pofs))
	for id := range l.pofs {
		ids = append(ids, id)
	}
	return types.SortReplicas(ids)
}

// CulpritCount returns how many distinct replicas have been proven
// deceitful.
func (l *refLog) CulpritCount() int { return len(l.pofs) }

// PoFs returns the stored proofs in culprit order.
func (l *refLog) PoFs() []PoF {
	out := make([]PoF, 0, len(l.pofs))
	for _, id := range l.Culprits() {
		out = append(out, l.pofs[id])
	}
	return out
}

// PoFFor returns the proof for a culprit, if any.
func (l *refLog) PoFFor(id types.ReplicaID) (PoF, bool) {
	p, ok := l.pofs[id]
	return p, ok
}

// Forget removes proofs for culprits that have been handled by a completed
// membership change (Alg. 1 line 39 discards treated PoFs). Forgotten
// culprits are remembered as treated: Record and AddPoF ignore further
// evidence against them, making exclusion idempotent under replayed
// gossip and certificates re-examined during catch-up.
func (l *refLog) Forget(ids []types.ReplicaID) {
	for _, id := range ids {
		delete(l.pofs, id)
		l.treated[id] = true
	}
}

// Treated reports whether a culprit's proofs were already handled by a
// completed membership change.
func (l *refLog) Treated(id types.ReplicaID) bool { return l.treated[id] }

// ProvenCulprits returns every replica ever proven deceitful by this log,
// sorted — including culprits whose proofs were since consumed by a
// membership change (Forget). This is the monotone audit view the
// end-of-run metrics and the conformance invariants use.
func (l *refLog) ProvenCulprits() []types.ReplicaID {
	ids := make([]types.ReplicaID, 0, len(l.proven))
	for id := range l.proven {
		ids = append(ids, id)
	}
	return types.SortReplicas(ids)
}

// ProvenCount returns how many distinct replicas were ever proven
// deceitful, regardless of later Forget calls.
func (l *refLog) ProvenCount() int { return len(l.proven) }
