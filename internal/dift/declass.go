// CNF-mode tracker extensions: integrity facts, integrity-guarded
// exchange rewriting, robust declassification and transparent endorsement
// (the CFC model layered over the flat tracker of §4.4).
//
// Everything here is gated on t.cnf, which NewTracker derives from
// Policy.HasCNF: a flat policy never reaches any of this code, so the
// Figure-10 fast path — and its byte-identical output — is untouched.
package dift

import (
	"turnstile/internal/policy"
	"turnstile/internal/telemetry"
)

// CNFEnabled reports whether the tracker runs the clause-aware extensions.
func (t *Tracker) CNFEnabled() bool { return t.cnf }

// IntegrityOf returns the integrity facts attached directly to v (nil when
// untracked). Unlike confidentiality, integrity is read shallowly here;
// DataIntegrity walks containers.
func (t *Tracker) IntegrityOf(v any) policy.LabelSet {
	if r, ok := v.(Ref); ok {
		return r.labelSlot().get(integrity)
	}
	return nil
}

// AttachIntegrity binds integrity facts to v, boxing value types exactly
// like Attach; the (possibly boxed) value is returned and must replace v.
func (t *Tracker) AttachIntegrity(v any, is policy.LabelSet) any {
	if is.Empty() {
		return v
	}
	return t.attachOwned(integrity, v, is.Clone())
}

// DataIntegrity collects the integrity facts of v and the values reachable
// from it (elements, boxes and — in CNF mode collection is always deep —
// object properties). Truncation at the depth bound simply stops: losing
// integrity facts is fail-safe (fewer exchanges fire, fewer
// declassifications are trusted), the opposite polarity of DataLabels'
// ⊤ join. Like DataLabels, the result may alias the set stored on v.
func (t *Tracker) DataIntegrity(v any) policy.LabelSet {
	return t.collectFrom(integrity, v)
}

// deriveIntegrity propagates integrity facts onto a derived value: the
// union over the sources' facts. Union (not meet) is deliberate — in the
// CFC reading an integrity atom is a *fact in the flow's possession*
// ("this request carries a Paid token"), minted only at transparent
// endorsement points, not a statement that every contributing input was
// trusted. Robustness comes from the endorsement discipline, not from
// meet-propagation. DESIGN.md discusses the trade-off.
func (t *Tracker) deriveIntegrity(out any, sources []any) any {
	var c collector
	for _, s := range sources {
		c.join(t.IntegrityOf(s))
	}
	if c.acc.Empty() {
		return out
	}
	return t.attachOwned(integrity, out, c.acc)
}

// exchanged applies the policy's exchange rules to a checked data label,
// enabled by the integrity facts reachable from the flowing values.
func (t *Tracker) exchanged(dl policy.LabelSet, values ...any) policy.LabelSet {
	if len(t.Policy.Exchanges) == 0 || dl.Empty() {
		return dl
	}
	c := collector{t: t, kind: integrity}
	for _, v := range values {
		c.root(v)
	}
	return policy.ApplyExchanges(dl, c.acc, t.Policy.Exchanges)
}

// cnfViolation records a CNF-rule refusal (declassifier/endorsement abuse)
// and returns it as an error in enforcement mode, mirroring verdict.
func (t *Tracker) cnfViolation(op, site, reason string, data policy.LabelSet) error {
	v := &Violation{Site: site, Op: op, Data: data.Clone(), Reason: reason}
	t.violations = append(t.violations, v)
	t.stats.Violations++
	if h := t.tel; h != nil {
		if h.violation != nil {
			h.violation.Inc()
		}
		t.trace(telemetry.Event{Op: "violation", Site: site, Detail: reason, Labels: LabelStrings(data)})
	}
	if t.OnViolation != nil {
		t.OnViolation(v)
	}
	if t.Enforce {
		return v
	}
	return nil
}

// Declassify implements declassify(v, name): discharge the declassifier's
// Removes atom from v's label, subject to robust declassification — every
// open pc scope whose condition labels are secret must have been guarded
// by a condition carrying the declassifier's Requires integrity fact.
// Otherwise low-integrity data would steer *which* secrets get released
// (the bit-steered declassification loop of the attack corpus). On refusal
// the value keeps its labels: in audit mode the tainted flow then
// surfaces again at the sink, in enforcement mode the error blocks it.
func (t *Tracker) Declassify(v any, name string) (out any, err error) {
	out = v
	site := "declassify:" + name
	if t.FailClosed {
		if t.degraded {
			t.stats.Checks++
			return v, t.denyDegraded("declassify", site)
		}
		defer t.recoverOp("declassify", site, &err)
	}
	if !t.cnf {
		return v, t.cnfViolation("declassify", site, "cnf-disabled", t.LabelsOf(v))
	}
	dec, ok := t.Policy.Declassifier(name)
	if !ok {
		return v, t.cnfViolation("declassify", site, "unknown-declassifier", t.LabelsOf(v))
	}
	if idx, bad := t.untrustedSecretScope(dec.Requires); bad {
		data := t.LabelsOf(v).Union(t.pcStack[idx])
		return v, t.cnfViolation("declassify", site, "robust-declassification", data)
	}
	r, isRef := v.(Ref)
	if !isRef {
		return v, nil // unlabelled value type: nothing to discharge
	}
	l := r.labelSlot()
	if ls := l.get(confidentiality); !ls.Empty() {
		if next := policy.Declassify(ls, dec.Removes); next.Empty() {
			l.rec.sets[confidentiality] = nil
		} else {
			l.rec.sets[confidentiality] = next
		}
	}
	return v, nil
}

// untrustedSecretScope scans the open pc scopes for one that is secret-
// influenced (non-empty condition labels) but not guarded by the required
// integrity fact; it returns the scope index when found.
func (t *Tracker) untrustedSecretScope(requires policy.Label) (int, bool) {
	for i, scope := range t.pcStack {
		if scope.Empty() {
			continue
		}
		if requires == "" || i >= len(t.pcInteg) || !t.pcInteg[i].Contains(requires) {
			return i, true
		}
	}
	return 0, false
}

// Endorse implements endorse(v, name): attach the endorsement's integrity
// fact to v, subject to transparent endorsement — the pc must be public.
// Endorsing under secret control would both leak (which inputs got
// endorsed reveals the secret) and launder (the minted fact unlocks
// exchanges and declassification downstream).
func (t *Tracker) Endorse(v any, name string) (out any, err error) {
	out = v
	site := "endorse:" + name
	if t.FailClosed {
		if t.degraded {
			t.stats.Checks++
			return v, t.denyDegraded("endorse", site)
		}
		defer t.recoverOp("endorse", site, &err)
	}
	if !t.cnf {
		return v, t.cnfViolation("endorse", site, "cnf-disabled", nil)
	}
	end, ok := t.Policy.Endorsement(name)
	if !ok {
		return v, t.cnfViolation("endorse", site, "unknown-endorsement", nil)
	}
	if pc := t.PC(); !pc.Empty() {
		return v, t.cnfViolation("endorse", site, "opaque-endorsement", pc)
	}
	return t.AttachIntegrity(v, policy.NewLabelSet(end.Adds)), nil
}
