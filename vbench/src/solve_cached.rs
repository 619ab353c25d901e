//! `solve-cached`: fresh-solver solves of CNFs translated during set-up,
//! each solved plain and after `mca_sat::simplify` — the two solver
//! configurations the daemon serves from its translation tier. The SAT
//! layer does nearly all of the timed work; translation shows only in
//! `setup_s`.

use std::collections::BTreeMap;
use std::time::Instant;

use mca_sat::{CnfFormula, SolveResult, Solver};
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

use crate::answers::{self, Failure, Tally};
use crate::layers::{ms_since, per_layer_metrics, Layers};
use crate::stats::Rng;
use crate::{oracle, probe, repeat_setup, run_passes, Args, Report, Timed, Tracer};

/// The scenarios whose CNFs the deck solves, all under the optimized
/// encoding.
fn scenarios() -> Vec<(&'static str, DynamicScenario)> {
    vec![
        ("paper_scope_sound", DynamicScenario::paper_scope_sound()),
        ("at_scope_3x3", DynamicScenario::at_scope(3, 3)),
        // Four states short of the 16 at which every four-agent schedule
        // has quiesced: refuted, with a hard satisfiable search.
        (
            LARGEST,
            DynamicScenario {
                states: 12,
                ..DynamicScenario::at_scope(4, 2)
            },
        ),
        ("paper_scope", DynamicScenario::paper_scope()),
    ]
}

/// The scenario whose translation alone takes as long as the others
/// together.
const LARGEST: &str = "at_scope_4x2_12_states";

/// Translates facts ∧ ¬consensus for each scenario, on two threads: the
/// largest translation on one, the rest on the other.
fn translate_all(
    scenarios: &[(&'static str, DynamicScenario)],
    layers: Option<&mut Layers>,
) -> Vec<CnfFormula> {
    let translate = |s: &DynamicScenario| {
        let start = Instant::now();
        let cnf = DynamicModel::build(NumberEncoding::OptimizedValue, s.clone())
            .consensus_cnf()
            .expect("shipped scenarios translate");
        (cnf, ms_since(start))
    };
    let (big, rest): (Vec<usize>, Vec<usize>) =
        (0..scenarios.len()).partition(|&i| scenarios[i].0 == LARGEST);
    let mut out: Vec<Option<(CnfFormula, f64)>> = (0..scenarios.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = [big, rest]
            .into_iter()
            .map(|part| {
                scope.spawn(move || {
                    part.into_iter()
                        .map(|i| (i, translate(&scenarios[i].1)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("translation thread panicked") {
                out[i] = Some(r);
            }
        }
    });
    let out: Vec<(CnfFormula, f64)> = out.into_iter().map(|r| r.expect("translated")).collect();
    if let Some(layers) = layers {
        for (cnf, ms) in &out {
            layers.add_ms("translate", *ms);
            layers.count("cnf_clauses", cnf.num_clauses() as u64);
            layers.count("cnf_vars", cnf.num_vars() as u64);
        }
        layers.end_pass();
    }
    out.into_iter().map(|(cnf, _)| cnf).collect()
}

/// One solve as the daemon makes it: optionally simplify, load a fresh
/// solver, solve.
fn solve(cnf: &CnfFormula, preprocess: bool) -> (SolveResult, Solver) {
    let mut solver = if preprocess {
        mca_sat::simplify(cnf).0.to_solver()
    } else {
        cnf.to_solver()
    };
    (solver.solve(), solver)
}

/// [`solve`] with each step timed as its layer.
fn traced_solve(layers: &mut Layers, cnf: &CnfFormula, preprocess: bool) -> (SolveResult, Solver) {
    let simplified = preprocess.then(|| layers.time("preprocess", || mca_sat::simplify(cnf).0));
    let mut solver = layers.time("load", || simplified.as_ref().unwrap_or(cnf).to_solver());
    let result = layers.time("solve", || solver.solve());
    layers.count("conflicts", solver.stats().conflicts);
    layers.count("propagations", solver.stats().propagations);
    (result, solver)
}

/// Checks one solve: the verdict against the oracle, and a SAT model
/// against every clause of the original (unsimplified) CNF.
fn check_answer(
    expected_valid: bool,
    cnf: &CnfFormula,
    (result, solver): &(SolveResult, Solver),
) -> Result<(), Failure> {
    answers::all([
        answers::verdict(expected_valid, *result == SolveResult::Unsat),
        match solver.model() {
            Some(model) if result.is_sat() => answers::model_satisfies(cnf, &model),
            _ => Ok(()),
        },
    ])
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let scenarios = scenarios();
    let expected: Vec<bool> = scenarios
        .iter()
        .map(|(_, s)| oracle::consensus_valid(s))
        .collect();
    let mut setup_layers = Layers::default();
    let (cnfs, setups) = repeat_setup(
        || translate_all(&scenarios, args.trace.then_some(&mut setup_layers)),
        drop,
    );
    // Queries: every CNF, plain and preprocessed.
    let queries: Vec<(String, usize, bool)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(i, (name, _))| {
            [
                (format!("{name}:plain"), i, false),
                (format!("{name}:simplified"), i, true),
            ]
        })
        .collect();

    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed);
    let mut timed = Timed::default();
    let mut verdicts: BTreeMap<usize, Vec<bool>> = BTreeMap::new();
    let mut tracer = Tracer::default();
    let wall_s = run_passes(args, |pass| {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        rng.shuffle(&mut order);
        for q in order {
            let (name, i, preprocess) = &queries[q];
            let cnf = &cnfs[*i];
            let ((ms, out), traced) = tracer.paired(
                args,
                pass,
                name,
                || {
                    let start = Instant::now();
                    let out = solve(cnf, *preprocess);
                    (ms_since(start), out)
                },
                |layers| traced_solve(layers, cnf, *preprocess),
            );
            timed.add(name, ms);
            verdicts
                .entry(*i)
                .or_default()
                .push(out.0 == SolveResult::Unsat);
            tally.record(name, check_answer(expected[*i], cnf, &out));
            if let Some(out) = traced {
                tally.record(
                    &format!("traced {name}"),
                    check_answer(expected[*i], cnf, &out),
                );
            }
        }
        tracer.layers.end_pass();
    });
    timed.wall_s = wall_s;
    let end_to_end = timed.end_to_end(&setups);

    // Plain and preprocessed solves of one CNF agree.
    for (i, seen) in &verdicts {
        let agree = if seen.iter().all(|&v| v == seen[0]) {
            Ok(())
        } else {
            Err(Failure::Wrong(
                "plain and preprocessed verdicts differ".into(),
            ))
        };
        tally.record(&format!("verdicts agree {}", scenarios[*i].0), agree);
    }

    timed.print_summary("solve-cached");
    let metrics = if args.trace {
        crate::print_reconciliation("solve-cached", &tracer.reconcile(&timed));
        let mut probe_layers = Layers::default();
        probe::run(&mut probe_layers, &mut tally);
        per_layer_metrics(&[&tracer.layers, &setup_layers, &probe_layers])
    } else {
        end_to_end
    };
    Report { tally, metrics }
}
