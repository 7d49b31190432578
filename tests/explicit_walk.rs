//! The explicit state graph is built by a packed walk: markings as word
//! rows in one index, edges in compressed sparse rows, and one pass over the
//! edges that assigns codes and records each state's excited changes. It
//! must be indistinguishable from the straightforward walk it replaced,
//! which is kept here as the oracle: the same states in the same order, the
//! same codes, successors, excited changes and deadlocks, and the same error,
//! with the same text, wherever the walk fails.

use std::collections::{HashMap, VecDeque};

use si_synth::petri::{Marking, NetError, PetriNet, TransitionId};
use si_synth::stategraph::{SgError, StateGraph};
use si_synth::stg::generators::{
    counterflow_pipeline, dining_philosophers, independent_cycles, muller_pipeline, parallelizer,
    sequencer, token_ring, wide_arbiter,
};
use si_synth::stg::suite::{
    choice_merge, concurrent_fork_join, fifo_send, master_read, paper_fig1, paper_fig4ab,
    paper_fig4c, request_mux, toggle, vme_read_csc, vme_read_no_csc,
};
use si_synth::stg::{parse_g, BinaryCode, Polarity, SignalId, Stg, StgBuilder};

/// Each state's marking, edges and code, by state id.
type Walk = (
    Vec<Marking>,
    Vec<Vec<(TransitionId, usize)>>,
    Vec<BinaryCode>,
);

/// The walk as it was before packing: a `Marking`-keyed `HashMap` with
/// one edge `Vec` per state, then a parity BFS carrying a `BinaryCode`.
fn reference_walk(stg: &Stg, budget: usize) -> Result<Walk, SgError> {
    let (net, n) = (stg.net(), stg.signal_count());
    let over = || SgError::Net(NetError::StateBudgetExceeded { budget });
    if budget == 0 {
        return Err(over());
    }
    let mut markings = vec![net.initial_marking().clone()];
    let mut index = HashMap::from([(markings[0].clone(), 0)]);
    let mut edges = Vec::new();
    while edges.len() < markings.len() {
        let m = markings[edges.len()].clone();
        let mut out = Vec::new();
        for t in net.enabled_transitions(&m) {
            let next = net.fire(t, &m).map_err(SgError::Net)?;
            let id = match index.get(&next) {
                Some(&id) => id,
                None if markings.len() >= budget => return Err(over()),
                None => {
                    index.insert(next.clone(), markings.len());
                    markings.push(next);
                    markings.len() - 1
                }
            };
            out.push((t, id));
        }
        edges.push(out);
    }
    let inconsistent = |signal: &str, detail: String| SgError::Inconsistent {
        signal: signal.to_owned(),
        detail,
    };
    let mut delta: Vec<Option<BinaryCode>> = vec![None; markings.len()];
    delta[0] = Some(BinaryCode::zeros(n));
    let mut v0: Vec<Option<bool>> = vec![None; n];
    let mut queue = VecDeque::from([0]);
    while let Some(s) = queue.pop_front() {
        let d = delta[s].clone().expect("queued states have a parity");
        for &(t, s2) in &edges[s] {
            let mut d2 = d.clone();
            if let Some(l) = stg.label(t) {
                d2.toggle(l.signal);
                let c = d.get(l.signal) ^ l.polarity.source_value();
                if *v0[l.signal.index()].get_or_insert(c) != c {
                    let (name, t) = (stg.signal_name(l.signal), stg.transition_label_string(t));
                    let detail = format!(
                        "conflicting initial-value constraints for `{name}` (transition {t})"
                    );
                    return Err(inconsistent(name, detail));
                }
            }
            match &delta[s2] {
                None => {
                    delta[s2] = Some(d2);
                    queue.push_back(s2);
                }
                Some(e) if *e != d2 => {
                    let name = stg
                        .label(t)
                        .map_or("<dummy>", |l| stg.signal_name(l.signal));
                    let detail =
                        "signal-change parity differs between two paths to the same marking";
                    return Err(inconsistent(name, detail.to_owned()));
                }
                Some(_) => {}
            }
        }
    }
    let inferred = || BinaryCode::from_bits(v0.iter().map(|&v| v == Some(true)));
    let v0_code = stg.initial_code().cloned().unwrap_or_else(inferred);
    for (i, known) in v0.iter().enumerate() {
        let declared = v0_code.get(SignalId(i as u32));
        if known.is_some_and(|v| v != declared) {
            let (declared, must) = (u8::from(declared), u8::from(!declared));
            let detail =
                format!("declared initial value {declared} contradicts the STG (must be {must})");
            return Err(inconsistent(stg.signal_name(SignalId(i as u32)), detail));
        }
    }
    let codes = delta
        .into_iter()
        .map(|d| {
            let d = d.expect("the parity BFS reaches every state");
            BinaryCode::from_bits(v0_code.iter().zip(d.iter()).map(|((_, v), (_, x))| v ^ x))
        })
        .collect();
    Ok((markings, edges, codes))
}

/// Excited changes as sorted `(signal, falling)` pairs.
type Changes = Vec<(usize, bool)>;

fn sorted(changes: impl IntoIterator<Item = (usize, bool)>) -> Changes {
    let mut v: Changes = changes.into_iter().collect();
    v.sort();
    v.dedup();
    v
}

/// Builds `stg`'s state graph both ways under `budget` and asserts they
/// agree state by state, or fail with the same error. Returns the state
/// count (0 on an error).
fn assert_same_walk(stg: &Stg, budget: usize) -> usize {
    let what = stg.name();
    let ((markings, edges, codes), sg) =
        match (reference_walk(stg, budget), StateGraph::build(stg, budget)) {
            (Ok(walk), Ok(sg)) => (walk, sg),
            (Err(expected), got) => {
                assert_eq!(got.err(), Some(expected), "{what}: error");
                return 0;
            }
            (Ok(_), Err(e)) => panic!("{what}: the reference walk succeeds, the graph fails: {e}"),
        };
    let n = markings.len();
    assert_eq!(sg.len(), n, "{what}: state count");
    let (rg, class) = (sg.reachability(), sg.classification());
    let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1 == 1;
    for s in 0..n {
        assert_eq!(rg.marking(s), markings[s], "{what}: marking of {s}");
        assert_eq!(sg.code(s), codes[s], "{what}: code of {s}");
        assert_eq!(sg.successors(s), edges[s], "{what}: successors of {s}");
        let label = |(t, _): &(TransitionId, usize)| stg.label(*t);
        let expected = sorted(
            edges[s]
                .iter()
                .filter_map(label)
                .map(|l| (l.signal.index(), l.polarity == Polarity::Fall)),
        );
        let listed = sg.excited(stg, s).into_iter();
        let listed = sorted(listed.map(|l| (l.signal.index(), l.polarity == Polarity::Fall)));
        assert_eq!(listed, expected, "{what}: excited at {s}");
        let (rise, fall) = class.excited_words(s);
        let masked = sorted((0..stg.signal_count()).flat_map(|i| {
            [(bit(rise, i), false), (bit(fall, i), true)]
                .into_iter()
                .filter(|&(set, _)| set)
                .map(move |(_, falling)| (i, falling))
        }));
        assert_eq!(masked, expected, "{what}: excitation masks at {s}");
    }
    let deadlocks: Vec<usize> = (0..n).filter(|&s| edges[s].is_empty()).collect();
    assert_eq!(rg.deadlocks(), deadlocks, "{what}: deadlocks");
    n
}

fn benchmark(file: &str) -> Stg {
    let path = format!("{}/benchmarks/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_g(&text).unwrap_or_else(|e| panic!("{file} parses: {e}"))
}

#[test]
fn packed_walk_matches_the_reference_on_the_suite_and_generators() {
    let mut specs = vec![
        paper_fig1(),
        paper_fig4ab(),
        paper_fig4c(),
        vme_read_no_csc(),
        vme_read_csc(),
        request_mux(),
        concurrent_fork_join(),
        toggle(),
        master_read(),
        choice_merge(),
        fifo_send(),
    ];
    specs.extend((2..=8).map(muller_pipeline));
    specs.extend((3..=8).map(token_ring));
    specs.extend((1..=4).map(counterflow_pipeline));
    specs.extend((1..=4).map(parallelizer));
    specs.extend((2..=6).map(wide_arbiter));
    specs.extend((2..=5).map(dining_philosophers));
    specs.extend((3..=6).map(sequencer));
    specs.extend((2..=6).map(independent_cycles));
    for stg in &specs {
        assert!(
            assert_same_walk(stg, 1_000_000) > 0,
            "{} builds",
            stg.name()
        );
    }
}

#[test]
fn packed_walk_matches_the_reference_on_every_small_benchmark() {
    // Specs with more than 20k states fail both walks with the same budget
    // error; every other one must build identically.
    let dir = format!("{}/benchmarks", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("benchmarks directory")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".g"))
        .collect();
    files.sort();
    let built = files
        .iter()
        .filter(|file| assert_same_walk(&benchmark(file), 20_000) > 0)
        .count();
    assert!(
        built >= 6,
        "only {built} of {} benchmarks built",
        files.len()
    );
}

/// The two-signal spec `a+ → a+ → b+ → (a+ again)`, where `b+` also returns
/// a token to `q`, and its place `q` and transition `b+`.
fn inconsistent_then_unsafe() -> (Stg, usize, TransitionId) {
    let mut b = StgBuilder::new();
    let (a, sig_b) = (b.input("a"), b.output("b"));
    let (p0, p1, p2, q) = (b.place("p0"), b.place("p1"), b.place("p2"), b.place("q"));
    let (a1, a2, b1) = (b.rise(a), b.rise(a), b.rise(sig_b));
    b.arc_pt(p0, a1);
    b.arc_tp(a1, p1);
    b.arc_pt(p1, a2);
    b.arc_tp(a2, p2);
    b.arc_pt(p2, b1);
    b.arc_tp(b1, q);
    b.arc_tp(b1, p0);
    b.mark(p0);
    (b.build().expect("structurally valid"), q.index(), b1)
}

fn unsafe_parts(err: &SgError) -> (usize, TransitionId) {
    match err {
        SgError::Net(NetError::Unsafe {
            place, transition, ..
        }) => (place.index(), *transition),
        other => panic!("expected an unsafe-net error, got {other}"),
    }
}

/// Fires `path` from the initial marking and returns the error of the
/// last firing, as [`PetriNet::fire`] reports it.
fn fire_error(net: &PetriNet, path: &[TransitionId]) -> SgError {
    let mut m = net.initial_marking().clone();
    for (i, &t) in path.iter().enumerate() {
        match net.fire(t, &m) {
            Ok(next) if i + 1 < path.len() => m = next,
            Ok(_) => panic!("the last firing of the path is safe"),
            Err(e) => return SgError::Net(e),
        }
    }
    panic!("empty path")
}

#[test]
fn unsafe_nets_report_the_place_and_transition_fire_reports() {
    // Plain: `a+` and `b+` each put a token on `p`.
    let mut b = StgBuilder::new();
    let (a, sig_b) = (b.input("a"), b.input("b"));
    let (pa, pb, p) = (b.place("pa"), b.place("pb"), b.place("p"));
    let (ta, tb) = (b.rise(a), b.rise(sig_b));
    b.arc_pt(pa, ta);
    b.arc_tp(ta, p);
    b.arc_pt(pb, tb);
    b.arc_tp(tb, p);
    b.mark(pa);
    b.mark(pb);
    let plain = b.build().expect("structurally valid");
    let err = StateGraph::build(&plain, 100).unwrap_err();
    assert_eq!(err, fire_error(plain.net(), &[ta, tb]));
    assert_eq!(unsafe_parts(&err), (p.index(), tb));
    assert_same_walk(&plain, 100);

    // A duplicate output arc: the first firing already overfills `p`.
    let mut b = StgBuilder::new();
    let a = b.output("a");
    let (p0, p) = (b.place("p0"), b.place("p"));
    let ta = b.rise(a);
    b.arc_pt(p0, ta);
    b.arc_tp(ta, p);
    b.arc_tp(ta, p);
    b.mark(p0);
    let doubled = b.build().expect("structurally valid");
    let err = StateGraph::build(&doubled, 100).unwrap_err();
    assert_eq!(err, fire_error(doubled.net(), &[ta]));
    assert_eq!(unsafe_parts(&err), (p.index(), ta));
    assert_same_walk(&doubled, 100);

    // The walk meets an inconsistent edge (`a+` twice) three states before
    // the unsafe firing; exploration errors come first.
    let (stg, q, b1) = inconsistent_then_unsafe();
    let err = StateGraph::build(&stg, 100).unwrap_err();
    let path = [0, 1, 2, 0, 1, 2].map(TransitionId);
    assert_eq!(err, fire_error(stg.net(), &path));
    assert_eq!(unsafe_parts(&err), (q, b1));
    assert_same_walk(&stg, 100);
}

#[test]
fn budget_boundary_holds_through_the_state_graph() {
    for stg in [paper_fig1(), muller_pipeline(4), dining_philosophers(3)] {
        let n = StateGraph::build(&stg, usize::MAX).expect("builds").len();
        assert_eq!(StateGraph::build(&stg, n).expect("fits").len(), n);
        for budget in [n - 1, 0] {
            assert_eq!(
                StateGraph::build(&stg, budget).unwrap_err(),
                SgError::Net(NetError::StateBudgetExceeded { budget }),
                "{} at {budget}",
                stg.name()
            );
            assert_same_walk(&stg, budget);
        }
    }
}

/// `a+` fires twice in a row around a two-place cycle.
fn double_rise() -> Stg {
    let mut b = StgBuilder::new();
    let a = b.input("a");
    let (t1, t2) = (b.rise(a), b.rise(a));
    b.arc_tt(t1, t2);
    let back = b.arc_tt(t2, t1);
    b.mark(back);
    b.build().expect("structurally valid")
}

#[test]
fn an_inconsistent_net_over_budget_reports_the_budget() {
    let stg = double_rise();
    assert!(matches!(
        StateGraph::build(&stg, 2),
        Err(SgError::Inconsistent { .. })
    ));
    assert_eq!(
        StateGraph::build(&stg, 1).unwrap_err(),
        SgError::Net(NetError::StateBudgetExceeded { budget: 1 })
    );
    assert_same_walk(&stg, 1);
}

/// A choice between two changes into one place: `x` (or a dummy when
/// `x` is `None`) against `a+`, both from `p0` to `p1`.
fn two_paths(second: Option<&str>) -> Stg {
    let mut b = StgBuilder::new();
    let a = b.input("a");
    let (p0, p1) = (b.place("p0"), b.place("p1"));
    let first = b.rise(a);
    let other = match second {
        Some(name) => {
            let x = b.input(name);
            b.rise(x)
        }
        None => b.dummy("d"),
    };
    for t in [first, other] {
        b.arc_pt(p0, t);
        b.arc_tp(t, p1);
    }
    b.mark(p0);
    b.build().expect("structurally valid")
}

#[test]
fn inconsistencies_keep_their_signal_and_detail() {
    let inconsistent = |signal: &str, detail: &str| SgError::Inconsistent {
        signal: signal.to_owned(),
        detail: detail.to_owned(),
    };
    let stg = double_rise();
    let t2 = stg.transition_label_string(TransitionId(1));
    let conflict = format!("conflicting initial-value constraints for `a` (transition {t2})");
    assert_eq!(
        StateGraph::build(&stg, 100).unwrap_err(),
        inconsistent("a", &conflict)
    );

    let parity = "signal-change parity differs between two paths to the same marking";
    assert_eq!(
        StateGraph::build(&two_paths(Some("x")), 100).unwrap_err(),
        inconsistent("x", parity)
    );
    assert_eq!(
        StateGraph::build(&two_paths(None), 100).unwrap_err(),
        inconsistent("<dummy>", parity)
    );

    let mut b = StgBuilder::new();
    let a = b.input("a");
    let (rise, fall) = (b.rise(a), b.fall(a));
    b.arc_tt(rise, fall);
    let back = b.arc_tt(fall, rise);
    b.mark(back);
    b.initial_value(a, true);
    let declared = b.build().expect("structurally valid");
    assert_eq!(
        StateGraph::build(&declared, 100).unwrap_err(),
        inconsistent(
            "a",
            "declared initial value 1 contradicts the STG (must be 0)"
        )
    );

    for stg in [
        double_rise(),
        two_paths(Some("x")),
        two_paths(None),
        declared,
    ] {
        assert_same_walk(&stg, 100);
    }
}
