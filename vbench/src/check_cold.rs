//! `check-cold`: consensus checks from scratch — model build, relational
//! translation, CNF load, goal solve and the vacuity probe — over a deck
//! that mixes both encodings and both verdicts. Translation is most of
//! the time here.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mca_relalg::TranslateError;
use mca_sat::{SolveResult, Solver};
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding, ScopedCheck};

use crate::answers::{self, Failure, Tally};
use crate::layers::{ms_since, per_layer_metrics, Layers};
use crate::stats::Rng;
use crate::{oracle, probe, repeat_setup, run_passes, Args, Report, Timed, Tracer};

/// One deck entry: a scenario checked under one encoding, `weight`
/// times per pass.
pub struct Query {
    /// `<scenario>:<encoding>`.
    pub name: String,
    /// The scenario's name, shared by its encodings.
    pub scenario_name: &'static str,
    /// The scenario.
    pub scenario: DynamicScenario,
    /// The encoding.
    pub encoding: NumberEncoding,
    /// Operations per pass.
    pub weight: usize,
}

fn query(
    scenario_name: &'static str,
    scenario: DynamicScenario,
    encoding: NumberEncoding,
    weight: usize,
) -> Query {
    let enc = match encoding {
        NumberEncoding::NaiveInt => "naive",
        NumberEncoding::OptimizedValue => "optimized",
    };
    Query {
        name: format!("{scenario_name}:{enc}"),
        scenario_name,
        scenario,
        encoding,
        weight,
    }
}

/// The deck. Sub-second queries repeat within a pass (`weight` > 1) so
/// that each gets enough samples for a steady median.
fn deck() -> Vec<Query> {
    use NumberEncoding::{NaiveInt as N, OptimizedValue as O};
    let s = DynamicScenario::at_scope;
    vec![
        query(
            "two_agent_rebid_attack",
            DynamicScenario::two_agent_rebid_attack(),
            N,
            1,
        ),
        query("at_scope_2x2", s(2, 2), N, 1),
        query(
            "two_agent_compliant",
            DynamicScenario::two_agent_compliant(),
            O,
            4,
        ),
        query(
            "two_agent_rebid_attack",
            DynamicScenario::two_agent_rebid_attack(),
            O,
            4,
        ),
        query("at_scope_2x2", s(2, 2), O, 4),
        query("paper_scope", DynamicScenario::paper_scope(), O, 4),
        query(
            "three_agent_line_compliant",
            DynamicScenario::three_agent_line_compliant(),
            O,
            1,
        ),
        query("at_scope_3x2", s(3, 2), O, 1),
        query("at_scope_3x3", s(3, 3), O, 1),
    ]
}

/// The order of one pass: every query `weight` times, shuffled.
fn pass_order(deck: &[Query], rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = deck
        .iter()
        .enumerate()
        .flat_map(|(i, q)| std::iter::repeat_n(i, q.weight))
        .collect();
    rng.shuffle(&mut order);
    order
}

/// The untraced operation: build the model and check it, exactly as a
/// caller of the library does.
fn check(q: &Query) -> (f64, Result<ScopedCheck, TranslateError>) {
    let start = Instant::now();
    let dm = DynamicModel::build(q.encoding, q.scenario.clone());
    let out = dm.check_consensus_opts(false);
    (ms_since(start), out)
}

fn check_answer(expected: bool, out: &Result<ScopedCheck, TranslateError>) -> Result<(), Failure> {
    match out {
        Err(e) => Err(Failure::Error(format!("{e:?}"))),
        Ok(c) if c.valid && c.vacuous => Err(Failure::Wrong(
            "valid but vacuous: the transition facts are unsatisfiable".into(),
        )),
        Ok(c) => answers::verdict(expected, c.valid),
    }
}

/// The traced operation: the same check rebuilt from the public calls
/// that make it up, each timed as its layer. Returns the verdict and, for
/// a refutation, the re-evaluation of its counterexample.
pub fn traced_check(
    layers: &mut Layers,
    encoding: NumberEncoding,
    scenario: DynamicScenario,
) -> Result<(bool, Result<(), Failure>), Failure> {
    let dm = layers.time("build", || DynamicModel::build(encoding, scenario));
    let (problem, assertion, translated) = layers.time("translate", || {
        let problem = dm.model().to_problem();
        let assertion = dm.consensus_assertion();
        let translated = problem.translate_goals(std::slice::from_ref(&assertion.not()));
        (problem, assertion, translated)
    });
    let (tr, goals) = translated.map_err(|e| Failure::Error(format!("{e:?}")))?;
    layers.count("cnf_clauses", tr.cnf.num_clauses() as u64);
    layers.count("cnf_vars", tr.cnf.num_vars() as u64);
    let mut solver = layers.time("load", || {
        let mut s = Solver::new();
        s.new_vars(tr.cnf.num_vars());
        for c in tr.cnf.clauses() {
            s.add_clause(c.iter().copied());
        }
        s
    });
    let valid =
        layers.time("solve", || solver.solve_with_assumptions(&goals)) == SolveResult::Unsat;
    let witness = if valid {
        let premise = layers.time("premise", || solver.solve_with_assumptions(&[]));
        if premise.is_sat() {
            Ok(())
        } else {
            Err(Failure::Wrong("valid but vacuous".into()))
        }
    } else {
        let model = solver.model().expect("a model after Sat");
        let instance = answers::decode(&problem, &tr, &model);
        answers::counterexample(&problem, &assertion, &instance)
    };
    let stats = solver.stats();
    layers.count("conflicts", stats.conflicts);
    layers.count("propagations", stats.propagations);
    Ok((valid, witness))
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let deck = deck();
    let expected: Vec<bool> = deck
        .iter()
        .map(|q| oracle::consensus_valid(&q.scenario))
        .collect();
    let mut tally = Tally::default();

    // Set-up: build every deck model, which validates the deck, and check
    // each sub-second query once as a warm-up of the allocator and caches.
    let ((), setups) = repeat_setup(
        || {
            for q in &deck {
                let dm = DynamicModel::build(q.encoding, q.scenario.clone());
                if q.weight > 1 {
                    std::hint::black_box(dm.check_consensus_opts(false).ok());
                }
            }
        },
        |()| {},
    );

    let mut rng = Rng::new(args.seed);
    let mut timed = Timed::default();
    let mut verdicts: BTreeMap<&str, BTreeSet<bool>> = BTreeMap::new();
    let mut tracer = Tracer::default();
    let wall_s = run_passes(args, |pass| {
        for i in pass_order(&deck, &mut rng) {
            let q = &deck[i];
            let ((ms, out), traced) = tracer.paired(
                args,
                pass,
                &q.name,
                || check(q),
                |layers| traced_check(layers, q.encoding, q.scenario.clone()),
            );
            timed.add(&q.name, ms);
            if let Ok(c) = &out {
                verdicts.entry(q.scenario_name).or_default().insert(c.valid);
            }
            tally.record(&q.name, check_answer(expected[i], &out));
            if let Some(out) = traced {
                let answer = out.and_then(|(valid, witness)| {
                    answers::all([answers::verdict(expected[i], valid), witness])
                });
                tally.record(&format!("traced {}", q.name), answer);
            }
        }
        tracer.layers.end_pass();
    });
    timed.wall_s = wall_s;
    let end_to_end = timed.end_to_end(&setups);

    // Refutations: re-evaluate one counterexample per refuted query.
    for (i, q) in deck.iter().enumerate().filter(|(i, _)| !expected[*i]) {
        if args.trace {
            break; // every traced refutation was re-evaluated above
        }
        let answer = traced_check(&mut Layers::default(), q.encoding, q.scenario.clone()).and_then(
            |(valid, witness)| answers::all([answers::verdict(expected[i], valid), witness]),
        );
        tally.record(&format!("counterexample {}", q.name), answer);
    }
    // Naive and optimized encodings agree.
    for (name, seen) in &verdicts {
        let agree = if seen.len() == 1 {
            Ok(())
        } else {
            Err(Failure::Wrong("encodings or repeats disagree".into()))
        };
        tally.record(&format!("verdicts agree {name}"), agree);
    }

    timed.print_summary("check-cold");
    let metrics = if args.trace {
        crate::print_reconciliation("check-cold", &tracer.reconcile(&timed));
        let mut probe_layers = Layers::default();
        probe::run(&mut probe_layers, &mut tally);
        per_layer_metrics(&[&tracer.layers, &probe_layers])
    } else {
        end_to_end
    };
    Report { tally, metrics }
}
