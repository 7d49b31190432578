//! Parser for the `.g`/astg interchange format used by SIS and Petrify.
//!
//! The accepted subset covers what the benchmark suite needs:
//!
//! ```text
//! .model name
//! .inputs a b
//! .outputs c
//! .internal d
//! .dummy e1
//! .graph
//! a+ c+            # transition → transition (implicit place)
//! p0 a+            # place → transition
//! c+ p0            # transition → place
//! a+/2 c-          # indexed transition instances
//! .marking { p0 <a+,c+> }
//! .initial { a=1 b=0 c=0 d=0 }   # extension: explicit v0
//! .end
//! ```
//!
//! Comments start with `#`. The `.initial` section is an extension of this
//! workspace (standard `.g` files leave `v₀` to be inferred from the
//! reachability graph; see `si-stategraph`).

use std::collections::{HashMap, HashSet};

use si_petri::{PlaceId, TransitionId};

use crate::binary::BinaryCode;
use crate::error::StgError;
use crate::model::{Stg, StgBuilder};
use crate::signal::{Polarity, SignalId, SignalKind};

/// Parses an STG from `.g` text.
///
/// # Errors
///
/// Returns [`StgError::Parse`] with a line number for syntax errors and
/// [`StgError`] variants from [`StgBuilder::build`] for semantic ones.
///
/// # Examples
///
/// ```
/// use si_stg::parse_g;
///
/// # fn main() -> Result<(), si_stg::StgError> {
/// let stg = parse_g(
///     ".model tiny
///      .inputs a
///      .outputs b
///      .graph
///      a+ b+
///      b+ a-
///      a- b-
///      b- a+
///      .marking { <b-,a+> }
///      .initial { a=0 b=0 }
///      .end",
/// )?;
/// assert_eq!(stg.signal_count(), 2);
/// assert_eq!(stg.name(), "tiny");
/// # Ok(())
/// # }
/// ```
pub fn parse_g(text: &str) -> Result<Stg, StgError> {
    Parser::new().parse(text, true).map(|(stg, _)| stg)
}

/// Parses an STG from `.g` text, additionally returning the
/// [`SourceSpans`] mapping every signal, transition and place back to the
/// line that introduced it — the raw material for linter diagnostics.
///
/// # Errors
///
/// Same as [`parse_g`].
pub fn parse_g_spanned(text: &str) -> Result<(Stg, SourceSpans), StgError> {
    Parser::new().parse(text, true)
}

/// Parses an STG from `.g` text **leniently**: syntax errors are still
/// hard [`StgError`]s, but structural validation ([`Stg::validate`]) is
/// skipped, so specifications with empty presets or an empty initial
/// marking come back as `Stg` values the linter can diagnose with precise
/// spans instead of a single first-error.
///
/// # Errors
///
/// Returns [`StgError::Parse`] and friends for syntax-level problems only.
pub fn parse_g_lenient(text: &str) -> Result<(Stg, SourceSpans), StgError> {
    Parser::new().parse(text, false)
}

/// 1-based source lines of the entities of a parsed `.g` file: for each
/// signal the declaring `.inputs`/`.outputs`/`.internal` line, for each
/// transition and place the first line that used it. Ids created outside
/// parsing (or the synthetic entities of generators) have no span.
#[derive(Debug, Clone, Default)]
pub struct SourceSpans {
    signals: Vec<usize>,
    transitions: Vec<usize>,
    places: Vec<usize>,
}

impl SourceSpans {
    fn note(slot: &mut Vec<usize>, index: usize, line: usize) {
        if slot.len() <= index {
            slot.resize(index + 1, 0);
        }
        if slot[index] == 0 {
            slot[index] = line;
        }
    }

    fn get(slot: &[usize], index: usize) -> Option<usize> {
        match slot.get(index) {
            Some(&line) if line > 0 => Some(line),
            _ => None,
        }
    }

    /// The line declaring `signal`, if known.
    pub fn signal_line(&self, signal: SignalId) -> Option<usize> {
        Self::get(&self.signals, signal.index())
    }

    /// The line first using `transition`, if known.
    pub fn transition_line(&self, transition: TransitionId) -> Option<usize> {
        Self::get(&self.transitions, transition.index())
    }

    /// The line first using `place`, if known.
    pub fn place_line(&self, place: PlaceId) -> Option<usize> {
        Self::get(&self.places, place.index())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Header,
    Graph,
    Done,
}

struct Parser {
    builder: StgBuilder,
    section: Section,
    /// Declared signal name → id (mirrors the builder, for token lookup).
    signal_ids: HashMap<String, SignalId>,
    /// Token (e.g. `a+/2` or a dummy name) → transition id.
    transitions: HashMap<String, TransitionId>,
    /// Explicit place name → place id.
    places: HashMap<String, PlaceId>,
    /// `(source, target)` transition → implicit place id.
    implicit: HashMap<(TransitionId, TransitionId), PlaceId>,
    dummies: HashSet<String>,
    saw_marking: bool,
    initial: HashMap<String, bool>,
    spans: SourceSpans,
}

impl Parser {
    fn new() -> Self {
        Parser {
            builder: StgBuilder::new(),
            section: Section::Header,
            signal_ids: HashMap::new(),
            transitions: HashMap::new(),
            places: HashMap::new(),
            implicit: HashMap::new(),
            dummies: HashSet::new(),
            saw_marking: false,
            initial: HashMap::new(),
            spans: SourceSpans::default(),
        }
    }

    fn err(line: usize, message: impl Into<String>) -> StgError {
        StgError::Parse {
            line,
            message: message.into(),
        }
    }

    fn parse(mut self, text: &str, strict: bool) -> Result<(Stg, SourceSpans), StgError> {
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            self.parse_line(line_no, line)?;
        }
        if !self.saw_marking {
            return Err(Self::err(0, "missing .marking section"));
        }
        self.finish(strict)
    }

    /// Signal and dummy names must be plain identifiers: anything with
    /// transition-token or section syntax in it would make later lines
    /// ambiguous, so it is rejected up front.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && !name.starts_with('.')
            && !name
                .chars()
                .any(|c| matches!(c, '+' | '-' | '/' | '<' | '>' | '{' | '}' | ',' | '=' | '#'))
    }

    fn declare(&mut self, line_no: usize, name: &str, kind: SignalKind) -> Result<(), StgError> {
        if !Self::valid_name(name) {
            return Err(Self::err(line_no, format!("invalid signal name `{name}`")));
        }
        if self.signal_ids.contains_key(name) || self.dummies.contains(name) {
            return Err(StgError::DuplicateSignal {
                name: name.to_owned(),
            });
        }
        let id = self.builder.signal(name, kind);
        SourceSpans::note(&mut self.spans.signals, id.index(), line_no);
        self.signal_ids.insert(name.to_owned(), id);
        Ok(())
    }

    fn declare_dummy(&mut self, line_no: usize, name: &str) -> Result<(), StgError> {
        if !Self::valid_name(name) {
            return Err(Self::err(line_no, format!("invalid dummy name `{name}`")));
        }
        if self.signal_ids.contains_key(name) || self.dummies.contains(name) {
            return Err(StgError::DuplicateSignal {
                name: name.to_owned(),
            });
        }
        self.dummies.insert(name.to_owned());
        Ok(())
    }

    fn parse_line(&mut self, line_no: usize, line: &str) -> Result<(), StgError> {
        let mut tokens = line.split_whitespace();
        let Some(head) = tokens.next() else {
            return Ok(()); // blank lines are filtered by the caller
        };
        match head {
            ".model" | ".name" => {
                if let Some(name) = tokens.next() {
                    self.builder.set_name(name);
                }
            }
            ".inputs" => {
                for t in tokens {
                    self.declare(line_no, t, SignalKind::Input)?;
                }
            }
            ".outputs" => {
                for t in tokens {
                    self.declare(line_no, t, SignalKind::Output)?;
                }
            }
            ".internal" => {
                for t in tokens {
                    self.declare(line_no, t, SignalKind::Internal)?;
                }
            }
            ".dummy" => {
                for t in tokens {
                    self.declare_dummy(line_no, t)?;
                }
            }
            ".graph" => {
                self.section = Section::Graph;
            }
            ".marking" => {
                self.parse_marking(line_no, line)?;
                self.saw_marking = true;
            }
            ".initial" => {
                self.parse_initial(line_no, line)?;
            }
            ".capacity" => { /* ignored: all places are 1-safe */ }
            ".end" => {
                self.section = Section::Done;
            }
            _ if head.starts_with('.') => {
                return Err(Self::err(line_no, format!("unknown directive `{head}`")));
            }
            _ => {
                if self.section != Section::Graph {
                    return Err(Self::err(line_no, "arc outside .graph section"));
                }
                self.parse_arc_line(line_no, line)?;
            }
        }
        Ok(())
    }

    /// Classifies a graph-section token as transition-shaped or
    /// place-shaped. A token is transition-shaped when it is a declared
    /// dummy or its body (before an optional `/instance` suffix) ends in
    /// `+`/`-`; transition syntax used with an undeclared signal or a
    /// malformed instance suffix is a hard error, never a silently created
    /// place.
    fn is_transition_token(&self, line_no: usize, token: &str) -> Result<bool, StgError> {
        let body = match token.find('/') {
            Some(pos) => &token[..pos],
            None => token,
        };
        if self.dummies.contains(body) {
            Self::check_instance_suffix(line_no, token, body)?;
            return Ok(true);
        }
        if body.ends_with('+') || body.ends_with('-') {
            let (name, _) = signal_of_token(token).ok_or_else(|| {
                Self::err(line_no, format!("malformed transition token `{token}`"))
            })?;
            if !self.signal_ids.contains_key(name) {
                return Err(StgError::UnknownSignal {
                    name: name.to_owned(),
                });
            }
            Self::check_instance_suffix(line_no, token, body)?;
            return Ok(true);
        }
        if token.contains('/') {
            return Err(Self::err(
                line_no,
                format!("`/` is transition-instance syntax, but `{token}` is not a transition"),
            ));
        }
        Ok(false)
    }

    /// Validates an optional `/N` transition-instance suffix.
    fn check_instance_suffix(line_no: usize, token: &str, body: &str) -> Result<(), StgError> {
        let suffix = &token[body.len()..];
        if !suffix.is_empty() {
            let digits = &suffix[1..];
            if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                return Err(Self::err(
                    line_no,
                    format!("malformed transition instance suffix in `{token}`"),
                ));
            }
        }
        Ok(())
    }

    fn parse_arc_line(&mut self, line_no: usize, line: &str) -> Result<(), StgError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 2 {
            return Err(Self::err(line_no, "arc line needs a source and a target"));
        }
        let src = tokens[0];
        for &dst in &tokens[1..] {
            self.add_arc(line_no, src, dst)?;
        }
        Ok(())
    }

    fn add_arc(&mut self, line_no: usize, src: &str, dst: &str) -> Result<(), StgError> {
        let src_is_t = self.is_transition_token(line_no, src)?;
        let dst_is_t = self.is_transition_token(line_no, dst)?;
        match (src_is_t, dst_is_t) {
            (true, true) => {
                let from = self.transition(line_no, src)?;
                let to = self.transition(line_no, dst)?;
                let place = self.builder.arc_tt(from, to);
                SourceSpans::note(&mut self.spans.places, place.index(), line_no);
                self.implicit.insert((from, to), place);
            }
            (true, false) => {
                let from = self.transition(line_no, src)?;
                let place = self.place(line_no, dst);
                self.builder.arc_tp(from, place);
            }
            (false, true) => {
                let place = self.place(line_no, src);
                let to = self.transition(line_no, dst)?;
                self.builder.arc_pt(place, to);
            }
            (false, false) => {
                return Err(Self::err(
                    line_no,
                    format!("arc `{src} {dst}` connects two places"),
                ));
            }
        }
        Ok(())
    }

    fn transition(&mut self, line_no: usize, token: &str) -> Result<TransitionId, StgError> {
        if let Some(&t) = self.transitions.get(token) {
            return Ok(t);
        }
        let body = match token.find('/') {
            Some(pos) => &token[..pos],
            None => token,
        };
        let t = if self.dummies.contains(body) {
            self.builder.dummy(token)
        } else {
            let (name, polarity) =
                signal_of_token(token).ok_or_else(|| StgError::UnknownSignal {
                    name: token.to_owned(),
                })?;
            let sig = *self
                .signal_ids
                .get(name)
                .ok_or_else(|| StgError::UnknownSignal {
                    name: name.to_owned(),
                })?;
            self.builder.transition(sig, polarity)
        };
        SourceSpans::note(&mut self.spans.transitions, t.index(), line_no);
        self.transitions.insert(token.to_owned(), t);
        Ok(t)
    }

    fn place(&mut self, line_no: usize, name: &str) -> PlaceId {
        if let Some(&p) = self.places.get(name) {
            return p;
        }
        let p = self.builder.place(name);
        SourceSpans::note(&mut self.spans.places, p.index(), line_no);
        self.places.insert(name.to_owned(), p);
        p
    }

    fn parse_marking(&mut self, line_no: usize, line: &str) -> Result<(), StgError> {
        let open = line.find('{');
        let close = line.rfind('}');
        let (open, close) = match (open, close) {
            (Some(o), Some(c)) if o < c => (o, c),
            _ => return Err(Self::err(line_no, ".marking needs `{ ... }`")),
        };
        let body = &line[open + 1..close];
        let mut rest = body.trim();
        while !rest.is_empty() {
            if let Some(stripped) = rest.strip_prefix('<') {
                let end = stripped
                    .find('>')
                    .ok_or_else(|| Self::err(line_no, "unterminated `<t1,t2>` marking token"))?;
                let inner = &stripped[..end];
                let (a, b) = inner.split_once(',').ok_or_else(|| {
                    Self::err(
                        line_no,
                        format!("marking token `<{inner}>` needs two comma-separated transitions"),
                    )
                })?;
                let (a, b) = (a.trim(), b.trim());
                let place = match (self.transitions.get(a), self.transitions.get(b)) {
                    (Some(&from), Some(&to)) => self.implicit.get(&(from, to)).copied(),
                    _ => None,
                }
                .ok_or_else(|| {
                    Self::err(
                        line_no,
                        format!("no implicit place between `{a}` and `{b}`"),
                    )
                })?;
                self.builder.mark(place);
                rest = stripped[end + 1..].trim_start();
            } else {
                let end = rest.find(|c: char| c.is_whitespace()).unwrap_or(rest.len());
                let token = &rest[..end];
                let place = self.places.get(token).copied().ok_or_else(|| {
                    Self::err(line_no, format!("unknown place `{token}` in marking"))
                })?;
                self.builder.mark(place);
                rest = rest[end..].trim_start();
            }
        }
        Ok(())
    }

    fn parse_initial(&mut self, line_no: usize, line: &str) -> Result<(), StgError> {
        let open = line.find('{');
        let close = line.rfind('}');
        let (open, close) = match (open, close) {
            (Some(o), Some(c)) if o < c => (o, c),
            _ => return Err(Self::err(line_no, ".initial needs `{ a=0 b=1 ... }`")),
        };
        for assign in line[open + 1..close].split_whitespace() {
            let (name, value) = assign
                .split_once('=')
                .ok_or_else(|| Self::err(line_no, format!("malformed assignment `{assign}`")))?;
            let value = match value {
                "0" => false,
                "1" => true,
                other => {
                    return Err(Self::err(
                        line_no,
                        format!("initial value must be 0 or 1, got `{other}`"),
                    ))
                }
            };
            if !self.signal_ids.contains_key(name) {
                return Err(StgError::UnknownSignal {
                    name: name.to_owned(),
                });
            }
            if self.initial.insert(name.to_owned(), value).is_some() {
                return Err(Self::err(
                    line_no,
                    format!("duplicate initial value for `{name}`"),
                ));
            }
        }
        Ok(())
    }

    fn finish(self, strict: bool) -> Result<(Stg, SourceSpans), StgError> {
        let mut builder = self.builder;
        if !self.initial.is_empty() {
            let mut signals: Vec<(String, SignalId)> = self.signal_ids.into_iter().collect();
            signals.sort_by_key(|(_, id)| *id);
            let mut bits = Vec::with_capacity(signals.len());
            for (name, _) in &signals {
                match self.initial.get(name) {
                    Some(&v) => bits.push(v),
                    None => {
                        return Err(StgError::PartialInitialValues {
                            declared: self.initial.len(),
                            signals: signals.len(),
                        })
                    }
                }
            }
            builder.set_initial_code(BinaryCode::from_bits(bits));
        }
        let stg = if strict {
            builder.build()?
        } else {
            builder.build_unvalidated()?
        };
        Ok((stg, self.spans))
    }
}

/// Splits a transition token `name+`, `name-`, `name+/2` into
/// `(signal name, polarity)`.
fn signal_of_token(token: &str) -> Option<(&str, Polarity)> {
    let body = match token.find('/') {
        Some(pos) => &token[..pos],
        None => token,
    };
    if let Some(name) = body.strip_suffix('+') {
        (!name.is_empty()).then_some((name, Polarity::Rise))
    } else if let Some(name) = body.strip_suffix('-') {
        (!name.is_empty()).then_some((name, Polarity::Fall))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "
.model tiny
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.initial { a=0 b=0 }
.end
";

    #[test]
    fn parses_tiny_model() {
        let stg = parse_g(TINY).expect("parses");
        assert_eq!(stg.name(), "tiny");
        assert_eq!(stg.signal_count(), 2);
        assert_eq!(stg.net().transition_count(), 4);
        assert_eq!(stg.net().place_count(), 4);
        assert_eq!(stg.net().initial_marking().len(), 1);
        assert_eq!(
            stg.initial_code().map(ToString::to_string).as_deref(),
            Some("00")
        );
        let a = stg.signal_by_name("a").expect("a");
        assert_eq!(stg.signal_kind(a), SignalKind::Input);
    }

    #[test]
    fn explicit_places_and_fanout() {
        let text = "
.model fanout
.inputs a
.outputs b c
.graph
p0 a+
a+ b+ c+
b+ p1
c+ p1
p1 a-
a- b-
b- c-
c- p0
.marking { p0 }
.initial { a=0 b=0 c=0 }
.end
";
        let stg = parse_g(text).expect("parses");
        assert_eq!(stg.signal_count(), 3);
        assert!(stg.net().place_count() >= 2);
        let a_plus = stg
            .net()
            .transitions()
            .find(|&t| stg.transition_label_string(t) == "a+")
            .expect("a+ exists");
        assert_eq!(stg.net().postset(a_plus).len(), 2);
    }

    #[test]
    fn indexed_instances_are_distinct() {
        let text = "
.model idx
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b+/2
b+/2 a+
.marking { <b+/2,a+> }
.end
";
        let stg = parse_g(text).expect("parses");
        let b = stg.signal_by_name("b").expect("b");
        assert_eq!(stg.transitions_of(b).len(), 2);
        // No .initial section: code left for inference.
        assert!(stg.initial_code().is_none());
    }

    #[test]
    fn dummy_transitions() {
        let text = "
.model dum
.inputs a
.dummy eps
.graph
a+ eps
eps a-
a- a+
.marking { <a-,a+> }
.end
";
        let stg = parse_g(text).expect("parses");
        assert!(!stg.is_fully_labelled());
    }

    #[test]
    fn error_unknown_signal_in_marking() {
        let text = "
.model bad
.inputs a
.graph
a+ z+
z+ a+
.marking { <z+,a+> }
.end
";
        // `z+` is not declared, so it is classified as a place name; the
        // marking token `<z+,a+>` then references a non-existent implicit
        // place.
        assert!(parse_g(text).is_err());
    }

    #[test]
    fn error_missing_marking() {
        let text = "
.model nomark
.inputs a
.graph
a+ a-
a- a+
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { message, .. }) if message.contains("marking")
        ));
    }

    #[test]
    fn error_arc_outside_graph() {
        let text = "
.model early
.inputs a
a+ a-
.graph
a+ a-
a- a+
.marking { <a-,a+> }
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn error_partial_initial() {
        let text = "
.model partial
.inputs a b
.graph
a+ a-
a- a+
b+ b-
b- b+
.marking { <a-,a+> <b-,b+> }
.initial { a=0 }
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::PartialInitialValues { .. })
        ));
    }

    #[test]
    fn error_place_to_place_arc() {
        let text = "
.model pp
.inputs a
.graph
p0 p1
.marking { p0 }
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { message, .. }) if message.contains("two places")
        ));
    }

    #[test]
    fn error_unknown_directive() {
        let text = ".frobnicate x\n.marking { }\n";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { message, .. }) if message.contains("unknown directive")
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "
# top comment
.model c   # trailing
.inputs a

.graph
a+ a-   # arc
a- a+
.marking { <a-,a+> }
.end
";
        let stg = parse_g(text).expect("parses");
        assert_eq!(stg.name(), "c");
    }

    #[test]
    fn token_classification() {
        assert_eq!(signal_of_token("a+"), Some(("a", Polarity::Rise)));
        assert_eq!(signal_of_token("ack-"), Some(("ack", Polarity::Fall)));
        assert_eq!(signal_of_token("a+/2"), Some(("a", Polarity::Rise)));
        assert_eq!(signal_of_token("p0"), None);
        assert_eq!(signal_of_token("+"), None);
    }

    #[test]
    fn error_duplicate_signal_declarations() {
        for decls in [
            ".inputs a\n.outputs a",
            ".inputs a a",
            ".inputs a\n.internal a",
            ".inputs a\n.dummy a",
            ".dummy e e",
        ] {
            let text = format!("{decls}\n.graph\na+ a-\na- a+\n.marking {{ <a-,a+> }}\n.end\n");
            assert!(
                matches!(parse_g(&text), Err(StgError::DuplicateSignal { .. })),
                "accepted {decls:?}"
            );
        }
    }

    #[test]
    fn error_invalid_signal_names() {
        for name in ["a+", "x/2", "<p>", "a=b", ".x"] {
            let text = format!(".inputs {name}\n.graph\n.marking {{ }}\n.end\n");
            assert!(
                matches!(parse_g(&text), Err(StgError::Parse { .. })),
                "accepted name {name:?}"
            );
        }
    }

    #[test]
    fn error_undeclared_transition_in_arc() {
        // `z+` uses transition syntax for an undeclared signal: a structured
        // error, not a silently created place named `z+`.
        let text = "
.model bad
.inputs a
.graph
a+ z+
z+ a-
a- a+
.marking { <a-,a+> }
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::UnknownSignal { name }) if name == "z"
        ));
    }

    #[test]
    fn error_malformed_instance_suffixes() {
        for token in ["a+/", "a+/x", "a+/2b", "a-/ 2"] {
            let text = format!(".model bad\n.inputs a\n.graph\na+ {token}\n.marking {{ }}\n.end\n");
            assert!(parse_g(&text).is_err(), "accepted suffix {token:?}");
        }
        // A slash on a place-shaped token is instance syntax misuse.
        let text = ".model bad\n.inputs a\n.graph\na+ p/0\n.marking { }\n.end\n";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { message, .. }) if message.contains("instance syntax")
        ));
    }

    #[test]
    fn dummy_instance_suffixes_are_distinct_transitions() {
        let text = "
.model dum2
.inputs a
.dummy eps
.graph
a+ eps
eps a-
a- eps/2
eps/2 a+
.marking { <eps/2,a+> }
.end
";
        let stg = parse_g(text).expect("parses");
        // Two distinct dummy instances plus a+/a-.
        assert_eq!(stg.net().transition_count(), 4);
        assert!(!stg.is_fully_labelled());
        // A malformed dummy instance suffix is still rejected.
        let bad = text.replace("eps/2", "eps/x");
        assert!(matches!(
            parse_g(&bad),
            Err(StgError::Parse { message, .. }) if message.contains("instance suffix")
        ));
    }

    #[test]
    fn error_bare_polarity_token() {
        let text = ".model bad\n.inputs a\n.graph\na+ +\n.marking { }\n.end\n";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { message, .. }) if message.contains("malformed transition")
        ));
    }

    #[test]
    fn error_marking_token_without_comma() {
        let text = "
.model bad
.inputs a
.graph
a+ a-
a- a+
.marking { <a-a+> }
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { message, .. }) if message.contains("comma")
        ));
    }

    #[test]
    fn error_initial_value_for_undeclared_signal() {
        let text = "
.model bad
.inputs a
.graph
a+ a-
a- a+
.marking { <a-,a+> }
.initial { a=0 z=1 }
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::UnknownSignal { name }) if name == "z"
        ));
    }

    #[test]
    fn error_duplicate_initial_value() {
        let text = "
.model bad
.inputs a
.graph
a+ a-
a- a+
.marking { <a-,a+> }
.initial { a=0 a=1 }
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { message, .. }) if message.contains("duplicate initial")
        ));
    }

    #[test]
    fn bad_initial_value_rejected() {
        let text = "
.model badinit
.inputs a
.graph
a+ a-
a- a+
.marking { <a-,a+> }
.initial { a=2 }
.end
";
        assert!(matches!(
            parse_g(text),
            Err(StgError::Parse { message, .. }) if message.contains("0 or 1")
        ));
    }
}
