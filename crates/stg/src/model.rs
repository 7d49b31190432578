//! The Signal Transition Graph model `G = ⟨N, A, L⟩` and its builder.

use std::collections::HashMap;
use std::fmt;

use si_petri::{PetriNet, PlaceId, TransitionId};

use crate::binary::BinaryCode;
use crate::error::StgError;
use crate::signal::{Polarity, SignalId, SignalKind, SignalTransition};

#[derive(Debug, Clone)]
struct SignalData {
    name: String,
    kind: SignalKind,
}

/// A Signal Transition Graph: a 1-safe marked Petri net whose transitions are
/// labelled with signal changes `±a`.
///
/// Unlabelled ("dummy") transitions are permitted by the data model (their
/// label is `None`) so that `.g` files using `.dummy` can be represented, but
/// the synthesis algorithms in this workspace require fully labelled STGs and
/// reject dummies up front.
///
/// An STG optionally carries the initial binary state `v₀`. Generators set it
/// explicitly; for parsed files it can be inferred from the reachability
/// graph (see `si-stategraph`).
///
/// # Examples
///
/// ```
/// use si_stg::{StgBuilder, SignalKind};
///
/// # fn main() -> Result<(), si_stg::StgError> {
/// let mut b = StgBuilder::new();
/// let req = b.signal("req", SignalKind::Input);
/// let ack = b.signal("ack", SignalKind::Output);
/// let req_p = b.rise(req);
/// let ack_p = b.rise(ack);
/// let req_m = b.fall(req);
/// let ack_m = b.fall(ack);
/// b.arc_tt(req_p, ack_p);
/// b.arc_tt(ack_p, req_m);
/// b.arc_tt(req_m, ack_m);
/// let back = b.arc_tt(ack_m, req_p);
/// b.mark(back);
/// b.initial_all_zero();
/// let stg = b.build()?;
/// assert_eq!(stg.signal_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Stg {
    net: PetriNet,
    signals: Vec<SignalData>,
    labels: Vec<Option<SignalTransition>>,
    initial_code: Option<BinaryCode>,
    name: String,
}

impl Stg {
    /// The underlying Petri net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// A human-readable name for the specification (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Iterates over all signal ids.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.signals.len() as u32).map(SignalId)
    }

    /// The name of `signal`.
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.signals[signal.index()].name
    }

    /// The kind of `signal`.
    pub fn signal_kind(&self, signal: SignalId) -> SignalKind {
        self.signals[signal.index()].kind
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }

    /// The label of `transition` (`None` for a dummy).
    pub fn label(&self, transition: TransitionId) -> Option<SignalTransition> {
        self.labels[transition.index()]
    }

    /// All transitions labelled with a change of `signal`.
    pub fn transitions_of(&self, signal: SignalId) -> Vec<TransitionId> {
        self.net
            .transitions()
            .filter(|&t| self.labels[t.index()].is_some_and(|l| l.signal == signal))
            .collect()
    }

    /// The initial binary state `v₀`, if known.
    pub fn initial_code(&self) -> Option<&BinaryCode> {
        self.initial_code.as_ref()
    }

    /// Sets (or replaces) the initial binary state.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::CodeWidthMismatch`] if the code width differs from
    /// the signal count.
    pub fn set_initial_code(&mut self, code: BinaryCode) -> Result<(), StgError> {
        if code.len() != self.signals.len() {
            return Err(StgError::CodeWidthMismatch {
                expected: self.signals.len(),
                found: code.len(),
            });
        }
        self.initial_code = Some(code);
        Ok(())
    }

    /// Returns `true` if no transition is a dummy.
    pub fn is_fully_labelled(&self) -> bool {
        self.labels.iter().all(|l| l.is_some())
    }

    /// Renders a transition label like `a+`, or the transition name for a
    /// dummy.
    pub fn transition_label_string(&self, transition: TransitionId) -> String {
        match self.label(transition) {
            Some(st) => format!("{}{}", self.signal_name(st.signal), st.polarity),
            None => self.net.transition_name(transition).to_owned(),
        }
    }

    /// The implementable (non-input) signals, in id order.
    pub fn implementable_signals(&self) -> Vec<SignalId> {
        self.signals()
            .filter(|&s| self.signal_kind(s).is_implementable())
            .collect()
    }

    /// Structural validation: the net is well-formed (rules shared with
    /// the linter via [`si_petri::structural::validation_errors`]) and the
    /// initial code (if set) has the right width (rule shared via
    /// [`crate::analysis::code_width_error`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated [`StgError`].
    pub fn validate(&self) -> Result<(), StgError> {
        self.net.validate()?;
        match crate::analysis::code_width_error(self) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "STG `{}`: {} signals, {} places, {} transitions",
            self.name,
            self.signals.len(),
            self.net.place_count(),
            self.net.transition_count()
        )
    }
}

/// Incremental construction of an [`Stg`].
///
/// The builder mirrors the `.g` file structure: declare signals, create
/// labelled transition instances, connect them through explicit or implicit
/// places, and mark the initial places. See [`Stg`] for a complete example.
#[derive(Debug, Clone, Default)]
pub struct StgBuilder {
    net: PetriNet,
    signals: Vec<SignalData>,
    names: HashMap<String, SignalId>,
    labels: Vec<Option<SignalTransition>>,
    initial_code: Option<BinaryCode>,
    initial_values: HashMap<SignalId, bool>,
    name: String,
}

impl StgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        StgBuilder {
            name: "stg".to_owned(),
            ..StgBuilder::default()
        }
    }

    /// Sets the specification name used in reports.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Declares a signal. Returns the existing id if the name was already
    /// declared (the kind is left unchanged in that case).
    pub fn signal(&mut self, name: impl Into<String>, kind: SignalKind) -> SignalId {
        let name = name.into();
        if let Some(&id) = self.names.get(&name) {
            return id;
        }
        let id = SignalId(self.signals.len() as u32);
        self.names.insert(name.clone(), id);
        self.signals.push(SignalData { name, kind });
        id
    }

    /// Declares an input signal.
    pub fn input(&mut self, name: impl Into<String>) -> SignalId {
        self.signal(name, SignalKind::Input)
    }

    /// Declares an output signal.
    pub fn output(&mut self, name: impl Into<String>) -> SignalId {
        self.signal(name, SignalKind::Output)
    }

    /// Declares an internal signal.
    pub fn internal(&mut self, name: impl Into<String>) -> SignalId {
        self.signal(name, SignalKind::Internal)
    }

    /// Adds a transition labelled `signal`/`polarity`.
    pub fn transition(&mut self, signal: SignalId, polarity: Polarity) -> TransitionId {
        let name = format!("{}{}", self.signals[signal.index()].name, polarity);
        let t = self.net.add_transition(name);
        self.labels
            .push(Some(SignalTransition { signal, polarity }));
        t
    }

    /// Adds a rising transition `signal+`.
    pub fn rise(&mut self, signal: SignalId) -> TransitionId {
        self.transition(signal, Polarity::Rise)
    }

    /// Adds a falling transition `signal-`.
    pub fn fall(&mut self, signal: SignalId) -> TransitionId {
        self.transition(signal, Polarity::Fall)
    }

    /// Adds an unlabelled (dummy) transition.
    pub fn dummy(&mut self, name: impl Into<String>) -> TransitionId {
        let t = self.net.add_transition(name);
        self.labels.push(None);
        t
    }

    /// Adds an explicit place.
    pub fn place(&mut self, name: impl Into<String>) -> PlaceId {
        self.net.add_place(name)
    }

    /// Adds a place→transition arc.
    pub fn arc_pt(&mut self, place: PlaceId, transition: TransitionId) {
        self.net.add_arc_pt(place, transition);
    }

    /// Adds a transition→place arc.
    pub fn arc_tp(&mut self, transition: TransitionId, place: PlaceId) {
        self.net.add_arc_tp(transition, place);
    }

    /// Connects two transitions through a fresh implicit place (the `.g`
    /// shorthand `t1 t2`). Returns the created place so it can be marked.
    pub fn arc_tt(&mut self, from: TransitionId, to: TransitionId) -> PlaceId {
        let name = format!(
            "<{},{}>",
            self.net.transition_name(from),
            self.net.transition_name(to)
        );
        let p = self.net.add_place(name);
        self.net.add_arc_tp(from, p);
        self.net.add_arc_pt(p, to);
        p
    }

    /// Marks `place` in the initial marking.
    pub fn mark(&mut self, place: PlaceId) {
        self.net.mark_initially(place);
    }

    /// Sets the initial value of one signal (used to assemble `v₀`).
    pub fn initial_value(&mut self, signal: SignalId, value: bool) {
        self.initial_values.insert(signal, value);
    }

    /// Declares `v₀ = 0…0`.
    pub fn initial_all_zero(&mut self) {
        for i in 0..self.signals.len() {
            self.initial_values.insert(SignalId(i as u32), false);
        }
    }

    /// Sets the complete initial code at once.
    pub fn set_initial_code(&mut self, code: BinaryCode) {
        self.initial_code = Some(code);
    }

    /// Finalises the STG.
    ///
    /// The initial code is assembled from [`initial_value`] /
    /// [`initial_all_zero`] calls if every signal has a declared value;
    /// otherwise it is left unset (to be inferred later).
    ///
    /// # Errors
    ///
    /// Returns [`StgError`] if the underlying net fails validation or a
    /// preset initial code has the wrong width.
    ///
    /// [`initial_value`]: StgBuilder::initial_value
    /// [`initial_all_zero`]: StgBuilder::initial_all_zero
    pub fn build(self) -> Result<Stg, StgError> {
        let stg = self.build_unvalidated()?;
        stg.validate()?;
        Ok(stg)
    }

    /// Finalises the STG **without** running [`Stg::validate`].
    ///
    /// This is the entry point for analysis tooling (the linter) that wants
    /// to construct structurally malformed STGs — empty presets, empty
    /// initial markings — and report every violation as a diagnostic with a
    /// source span, instead of failing construction on the first one.
    /// Initial-code assembly errors still apply: they concern data this
    /// builder itself was given inconsistently.
    ///
    /// # Errors
    ///
    /// Returns [`StgError::PartialInitialValues`] if initial values were
    /// declared for some but not all signals.
    pub fn build_unvalidated(self) -> Result<Stg, StgError> {
        let initial_code = match self.initial_code {
            Some(code) => Some(code),
            None if self.signals.len() == self.initial_values.len() => {
                let mut code = BinaryCode::zeros(self.signals.len());
                for (&sig, &v) in &self.initial_values {
                    code.set(sig, v);
                }
                Some(code)
            }
            None if !self.initial_values.is_empty() => {
                return Err(StgError::PartialInitialValues {
                    declared: self.initial_values.len(),
                    signals: self.signals.len(),
                });
            }
            None => None,
        };
        let stg = Stg {
            net: self.net,
            signals: self.signals,
            labels: self.labels,
            initial_code,
            name: self.name,
        };
        Ok(stg)
    }

    /// Finalises the STG, panicking on failure.
    ///
    /// For generators and fixtures whose construction is an internal
    /// invariant: a failure here is a bug in the construction code, not a
    /// user-facing condition, so there is nothing structured to return.
    ///
    /// # Panics
    ///
    /// Panics with the underlying [`StgError`] if validation fails.
    #[must_use]
    pub fn must_build(self) -> Stg {
        match self.build() {
            Ok(stg) => stg,
            Err(e) => unreachable!("internal STG construction failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake() -> Stg {
        let mut b = StgBuilder::new();
        b.set_name("handshake");
        let req = b.input("req");
        let ack = b.output("ack");
        let req_p = b.rise(req);
        let ack_p = b.rise(ack);
        let req_m = b.fall(req);
        let ack_m = b.fall(ack);
        b.arc_tt(req_p, ack_p);
        b.arc_tt(ack_p, req_m);
        b.arc_tt(req_m, ack_m);
        let back = b.arc_tt(ack_m, req_p);
        b.mark(back);
        b.initial_all_zero();
        b.build().expect("valid stg")
    }

    #[test]
    fn builder_roundtrip() {
        let stg = handshake();
        assert_eq!(stg.signal_count(), 2);
        assert_eq!(stg.net().transition_count(), 4);
        assert_eq!(stg.net().place_count(), 4);
        assert!(stg.is_fully_labelled());
        assert_eq!(
            stg.initial_code().map(ToString::to_string).as_deref(),
            Some("00")
        );
        assert_eq!(stg.name(), "handshake");
    }

    #[test]
    fn signal_lookup() {
        let stg = handshake();
        let req = stg.signal_by_name("req").expect("req exists");
        assert_eq!(stg.signal_name(req), "req");
        assert_eq!(stg.signal_kind(req), SignalKind::Input);
        assert!(stg.signal_by_name("nothere").is_none());
        assert_eq!(stg.implementable_signals().len(), 1);
    }

    #[test]
    fn transitions_of_signal() {
        let stg = handshake();
        let ack = stg.signal_by_name("ack").expect("ack exists");
        let ts = stg.transitions_of(ack);
        assert_eq!(ts.len(), 2);
        for t in ts {
            assert_eq!(stg.label(t).map(|l| l.signal), Some(ack));
        }
    }

    #[test]
    fn label_strings() {
        let stg = handshake();
        let labels: Vec<_> = stg
            .net()
            .transitions()
            .map(|t| stg.transition_label_string(t))
            .collect();
        assert_eq!(labels, vec!["req+", "ack+", "req-", "ack-"]);
    }

    #[test]
    fn duplicate_signal_names_reuse_id() {
        let mut b = StgBuilder::new();
        let a1 = b.input("a");
        let a2 = b.output("a");
        assert_eq!(a1, a2);
        // First declaration wins for the kind.
        assert_eq!(b.signals[a1.index()].kind, SignalKind::Input);
    }

    #[test]
    fn partial_initial_values_rejected() {
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let _b2 = b.input("b");
        let t1 = b.rise(a);
        let t2 = b.fall(a);
        b.arc_tt(t1, t2);
        let back = b.arc_tt(t2, t1);
        b.mark(back);
        b.initial_value(a, false);
        assert!(matches!(
            b.build(),
            Err(StgError::PartialInitialValues {
                declared: 1,
                signals: 2
            })
        ));
    }

    #[test]
    fn set_initial_code_width_checked() {
        let mut stg = handshake();
        assert!(stg
            .set_initial_code(BinaryCode::from_str_bits("1"))
            .is_err());
        assert!(stg
            .set_initial_code(BinaryCode::from_str_bits("10"))
            .is_ok());
        assert_eq!(
            stg.initial_code().map(ToString::to_string).as_deref(),
            Some("10")
        );
    }

    #[test]
    fn dummy_transitions_flagged() {
        let mut b = StgBuilder::new();
        let a = b.input("a");
        let t1 = b.rise(a);
        let d = b.dummy("skip");
        let t2 = b.fall(a);
        b.arc_tt(t1, d);
        b.arc_tt(d, t2);
        let back = b.arc_tt(t2, t1);
        b.mark(back);
        b.initial_all_zero();
        let stg = b.build().expect("valid stg");
        assert!(!stg.is_fully_labelled());
        assert_eq!(stg.transition_label_string(d), "skip");
    }

    #[test]
    fn display_summarises() {
        let stg = handshake();
        let text = stg.to_string();
        assert!(text.contains("handshake"));
        assert!(text.contains("2 signals"));
    }
}
