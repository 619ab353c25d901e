//! Answer checks. Every verdict a workload times is compared with an
//! answer computed apart from the program (the [`crate::oracle`], the
//! paper's results, a property the method must have), and every witness
//! the program returns is re-checked on its own terms. A wrong answer is
//! a failed operation, named in the run's report.

use std::collections::BTreeMap;

use mca_relalg::{Evaluator, Formula, Instance, Problem, TupleSet};
use mca_sat::CnfFormula;

/// Attempted and failed operations of one run, with the failures named.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or gave a wrong answer.
    pub failed: u64,
    /// Operations that completed with a wrong answer.
    pub wrong: u64,
    /// Failure descriptions, with how often each occurred.
    pub failures: BTreeMap<String, u64>,
}

impl Tally {
    /// Records one operation: `Ok` when its answer checked out.
    pub fn record(&mut self, op: &str, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            self.failed += 1;
            let text = match f {
                Failure::Wrong(why) => {
                    self.wrong += 1;
                    format!("{op}: wrong answer: {why}")
                }
                Failure::Error(why) => format!("{op}: error: {why}"),
            };
            *self.failures.entry(text).or_insert(0) += 1;
        }
    }

    /// Folds another tally (another client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for (k, n) in other.failures {
            *self.failures.entry(k).or_insert(0) += n;
        }
    }

    /// Whether every completed answer was right.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// Why an operation failed.
#[derive(Debug, PartialEq)]
pub enum Failure {
    /// It completed with an answer that does not check out.
    Wrong(String),
    /// It did not complete (translation error, transport error, …).
    Error(String),
}

/// Checks a verdict against its expected answer.
pub fn verdict(expected_valid: bool, got_valid: bool) -> Result<(), Failure> {
    if expected_valid == got_valid {
        Ok(())
    } else {
        Err(Failure::Wrong(format!(
            "expected {}, got {}",
            label(expected_valid),
            label(got_valid)
        )))
    }
}

/// `"valid"` or `"refuted"`.
fn label(valid: bool) -> &'static str {
    if valid {
        "valid"
    } else {
        "refuted"
    }
}

/// Re-evaluates a counterexample with the relational evaluator: every
/// fact of `problem` must hold in it and `assertion` must fail.
pub fn counterexample(
    problem: &Problem,
    assertion: &Formula,
    instance: &Instance,
) -> Result<(), Failure> {
    let mut ev = Evaluator::new(problem.universe(), instance);
    for (i, fact) in problem.facts().iter().enumerate() {
        match ev.formula(fact) {
            Ok(true) => {}
            Ok(false) => return Err(Failure::Wrong(format!("counterexample violates fact #{i}"))),
            Err(e) => return Err(Failure::Error(format!("evaluating fact #{i}: {e:?}"))),
        }
    }
    match ev.formula(assertion) {
        Ok(false) => Ok(()),
        Ok(true) => Err(Failure::Wrong(
            "counterexample satisfies the assertion".into(),
        )),
        Err(e) => Err(Failure::Error(format!("evaluating the assertion: {e:?}"))),
    }
}

/// Decodes a SAT model of `translation` into an instance of `problem`:
/// each relation holds its lower bound plus the tuples whose primary
/// variable is true.
pub fn decode(
    problem: &Problem,
    translation: &mca_relalg::Translation,
    model: &mca_sat::Model,
) -> Instance {
    let mut tuples: Vec<TupleSet> = problem
        .relation_ids()
        .map(|r| problem.relation(r).lower().clone())
        .collect();
    for (var, (rel, tuple)) in translation
        .input_vars()
        .iter()
        .zip(translation.input_tuples())
    {
        if model.value(*var) {
            tuples[rel.index()].insert(tuple.clone());
        }
    }
    problem.instance_from_tuples(tuples)
}

/// Checks that `model` satisfies every clause of `cnf`.
pub fn model_satisfies(cnf: &CnfFormula, model: &mca_sat::Model) -> Result<(), Failure> {
    if model.len() < cnf.num_vars() {
        return Err(Failure::Wrong(format!(
            "model covers {} of {} variables",
            model.len(),
            cnf.num_vars()
        )));
    }
    match cnf
        .clauses()
        .iter()
        .position(|c| !c.iter().any(|&l| model.lit_value(l)))
    {
        None => Ok(()),
        Some(i) => Err(Failure::Wrong(format!("model falsifies clause #{i}"))),
    }
}

/// Merges several checks: the first failure wins.
pub fn all(checks: impl IntoIterator<Item = Result<(), Failure>>) -> Result<(), Failure> {
    checks.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

    /// A refuted check's counterexample, through the same public calls
    /// the traced check-cold path makes.
    fn rebid_counterexample() -> (Problem, Formula, Instance) {
        let dm = DynamicModel::build(
            NumberEncoding::OptimizedValue,
            DynamicScenario::two_agent_rebid_attack(),
        );
        let problem = dm.model().to_problem();
        let assertion = dm.consensus_assertion();
        let (tr, goals) = problem
            .translate_goals(std::slice::from_ref(&assertion.not()))
            .unwrap();
        let mut solver = tr.cnf.to_solver();
        assert!(solver.solve_with_assumptions(&goals).is_sat());
        let model = solver.model().unwrap();
        let instance = decode(&problem, &tr, &model);
        (problem, assertion, instance)
    }

    #[test]
    fn a_real_counterexample_is_accepted() {
        let (problem, assertion, instance) = rebid_counterexample();
        assert_eq!(counterexample(&problem, &assertion, &instance), Ok(()));
    }

    #[test]
    fn a_tampered_counterexample_is_rejected() {
        let (problem, assertion, instance) = rebid_counterexample();
        // Empty the message buffer in every state: the initial-state fact
        // demands a full buffer, so the tampered instance is no execution.
        let tuples: Vec<TupleSet> = problem
            .relation_ids()
            .map(|r| {
                let ts = instance.tuples(r).clone();
                if problem.relation(r).name() == "buffMsgs" {
                    TupleSet::new(ts.arity())
                } else {
                    ts
                }
            })
            .collect();
        let tampered = problem.instance_from_tuples(tuples);
        assert!(matches!(
            counterexample(&problem, &assertion, &tampered),
            Err(Failure::Wrong(_))
        ));
        // A counterexample checked against an assertion it satisfies is
        // rejected too.
        assert!(matches!(
            counterexample(&problem, &Formula::true_(), &instance),
            Err(Failure::Wrong(_))
        ));
    }

    #[test]
    fn a_flipped_verdict_is_a_failed_operation() {
        let mut tally = Tally::default();
        tally.record("q", verdict(true, true));
        tally.record("q", verdict(false, true));
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (2, 1, 1));
        assert!(!tally.correct());
        assert_eq!(
            tally.failures.keys().next().unwrap(),
            "q: wrong answer: expected refuted, got valid"
        );
        // An operation that errors is failed but not wrong.
        tally.record("r", Err(Failure::Error("socket closed".into())));
        assert_eq!((tally.failed, tally.wrong), (2, 1));
    }

    #[test]
    fn a_model_that_misses_a_clause_is_rejected() {
        let mut cnf = CnfFormula::new();
        let v = cnf.new_vars(2);
        cnf.add_clause([v[0].positive(), v[1].positive()]);
        cnf.add_clause([v[0].negative()]);
        let mut solver = cnf.to_solver();
        assert!(solver.solve().is_sat());
        let model = solver.model().unwrap();
        assert_eq!(model_satisfies(&cnf, &model), Ok(()));
        let mut stricter = cnf.clone();
        stricter.add_clause([v[1].negative()]);
        assert!(matches!(
            model_satisfies(&stricter, &model),
            Err(Failure::Wrong(_))
        ));
    }
}
