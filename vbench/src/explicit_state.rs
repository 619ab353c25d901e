//! `explicit-state`: the `mca-core` engine — exhaustive exploration of
//! every delivery order with `checker::check_consensus` over the paper's
//! Figure-2 policy grid, the E4 rebid attack and explicit twins of the
//! SAT scenarios, plus seeded `Simulator::run_async` runs on compliant
//! line, ring, star and random networks.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mca_core::checker::{check_consensus, CheckerOptions, Verdict};
use mca_core::{
    scenarios, AgentId, FaultPlan, ItemId, Network, Policy, PositionUtility, RebidStrategy,
    Simulator,
};
use mca_verify::DynamicScenario;

use crate::answers::{self, Failure, Tally};
use crate::layers::{ms_since, per_layer_metrics, Layers};
use crate::stats::Rng;
use crate::{oracle, probe, repeat_setup, run_passes, Args, Report, Timed, Tracer};

/// Agents in each simulated network.
const SIM_AGENTS: usize = 6;
/// Items each simulated network auctions.
const SIM_ITEMS: usize = 4;
/// Delivery seeds per network instance and pass.
const SIM_SEEDS: usize = 50;
/// Transition budget of one simulated run; compliant runs quiesce long
/// before it.
const SIM_MAX_STEPS: usize = 100_000;

/// The explicit-state twin of a SAT scenario: same bids, same links,
/// pure max-consensus policies (every item targeted, no release), with
/// the scenario's attackers rebidding.
pub fn twin(s: &DynamicScenario) -> Simulator {
    let mut network = Network::new(s.pnodes);
    for &(a, b) in &s.links {
        network.add_link(AgentId(a as u32), AgentId(b as u32));
    }
    let policies = (0..s.pnodes)
        .map(|p| {
            let values: Vec<(ItemId, Vec<i64>)> = (0..s.vnodes)
                .filter(|&v| s.bids[p][v] > 0)
                .map(|v| (ItemId(v as u32), vec![s.bids[p][v]]))
                .collect();
            let policy = Policy::new(Arc::new(PositionUtility::new(values)), s.vnodes);
            if s.attackers.contains(&p) {
                policy.with_rebid(RebidStrategy::Rebid)
            } else {
                policy
            }
        })
        .collect();
    Simulator::new(network, s.vnodes, policies)
}

/// One exhaustive-exploration query.
pub struct Exploration {
    /// Query name.
    pub name: String,
    /// Builds a fresh simulator to explore.
    pub build: Box<dyn Fn() -> Simulator>,
    /// Whether every execution must converge, from the paper's results or
    /// the oracle's SAT-semantics verdict of the twinned scenario.
    pub converges: bool,
    /// Explorations per pass.
    pub weight: usize,
}

fn twin_query(name: &str, s: DynamicScenario, weight: usize) -> Exploration {
    Exploration {
        name: format!("twin:{name}"),
        converges: oracle::consensus_valid(&s),
        build: Box::new(move || twin(&s)),
        weight,
    }
}

/// The exploration deck. The 3×3 twin (277,106 states, 8–11 s) is left
/// out: as one indivisible operation it filled the whole timed phase, so
/// a run held one sample of it and the cheap queries' samples bunched
/// around it. Twins at 4×2 and above hit the checker's state cap.
fn explorations() -> Vec<Exploration> {
    let mut deck: Vec<Exploration> = scenarios::PolicyCell::grid()
        .into_iter()
        .map(|cell| Exploration {
            name: format!(
                "fig2:{}+{}",
                if cell.submodular { "sub" } else { "nonsub" },
                if cell.release_outbid {
                    "release"
                } else {
                    "keep"
                }
            ),
            // Result 1: consensus except for non-sub-modular utilities with
            // release-outbid.
            converges: cell.submodular || !cell.release_outbid,
            build: Box::new(move || scenarios::fig2(cell)),
            weight: 20,
        })
        .collect();
    deck.push(Exploration {
        name: "e4:rebid_attack".into(),
        // Result 2: rebidding agents defeat consensus.
        converges: false,
        build: Box::new(|| scenarios::rebid_attack(2, 2)),
        weight: 20,
    });
    let two_attackers = DynamicScenario {
        attackers: vec![0, 1],
        ..DynamicScenario::two_agent_compliant()
    };
    deck.push(twin_query("two_attackers", two_attackers, 20));
    deck.push(twin_query("2x2", DynamicScenario::at_scope(2, 2), 20));
    deck.push(twin_query("3x2", DynamicScenario::at_scope(3, 2), 5));
    deck.push(twin_query(
        "three_agent_line",
        DynamicScenario::three_agent_line_compliant(),
        1,
    ));
    deck
}

/// Explores one simulator exhaustively; a state-cap hit is an error, not
/// a verdict.
fn explore_answer(converges: bool, verdict: &Verdict) -> Result<(), Failure> {
    match verdict {
        Verdict::ResourceLimit { states_explored } => Err(Failure::Error(format!(
            "state cap after {states_explored} states"
        ))),
        v => answers::verdict(converges, v.converges()),
    }
}

/// Traced exploration: the simulator is built outside the layer.
pub fn traced_explore(layers: &mut Layers, sim: Simulator, converges: bool) -> Result<(), Failure> {
    let verdict = layers.time("explore", || {
        check_consensus(sim, CheckerOptions::default())
    });
    if let Verdict::Converges {
        states_explored, ..
    } = verdict
    {
        layers.count("states", states_explored as u64);
    }
    explore_answer(converges, &verdict)
}

/// The simulated networks of one pass, each a fresh compliant instance.
fn networks(rng: &mut Rng) -> Vec<(&'static str, Network, u64)> {
    let instance = rng.next_u64();
    vec![
        ("line", Network::line(SIM_AGENTS), instance),
        ("ring", Network::ring(SIM_AGENTS), instance ^ 1),
        ("star", Network::star(SIM_AGENTS), instance ^ 2),
        (
            "random",
            Network::random_connected(SIM_AGENTS, 0.4, instance),
            instance ^ 3,
        ),
    ]
}

/// Checks a simulated run: it converged, ends conflict-free and in
/// consensus, and allocates as every other delivery seed of its instance.
fn simulate_answer(
    sim: &Simulator,
    out: &mca_core::SimOutcome,
    reference: &mut Option<BTreeMap<ItemId, AgentId>>,
) -> Result<(), Failure> {
    if !(out.converged && sim.conflict_free() && sim.consensus_reached()) {
        return Err(Failure::Wrong(
            "compliant run did not reach a conflict-free consensus".into(),
        ));
    }
    match reference {
        None => {
            *reference = Some(out.allocation.clone());
            Ok(())
        }
        Some(r) if *r == out.allocation => Ok(()),
        Some(_) => Err(Failure::Wrong(
            "allocation depends on the delivery order".into(),
        )),
    }
}

/// Traced simulation: the simulator is built outside the layer.
pub fn traced_simulate(
    layers: &mut Layers,
    mut sim: Simulator,
    seed: u64,
    reference: &mut Option<BTreeMap<ItemId, AgentId>>,
) -> Result<(), Failure> {
    let start = Instant::now();
    let out = sim.run_async(seed, SIM_MAX_STEPS, FaultPlan::default());
    layers.add_ms("simulate", ms_since(start));
    layers.count("messages", out.messages_delivered as u64);
    simulate_answer(&sim, &out, reference)
}

/// One pass's operations, in order.
#[derive(Clone, Copy)]
enum Op {
    Explore(usize),
    Simulate { net: usize, seed: u64 },
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let deck = explorations();
    // Set-up: build every deck simulator and explore it once, warming the
    // checker's tables before the first timed operation.
    let ((), setups) = repeat_setup(
        || {
            for e in &deck {
                std::hint::black_box(check_consensus((e.build)(), CheckerOptions::default()));
            }
        },
        |()| {},
    );
    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed);
    let mut timed = Timed::default();
    let mut tracer = Tracer::default();
    let wall_s = run_passes(args, |pass| {
        let nets = networks(&mut rng);
        let mut ops: Vec<Op> = deck
            .iter()
            .enumerate()
            .flat_map(|(i, e)| std::iter::repeat_n(Op::Explore(i), e.weight))
            .collect();
        for net in 0..nets.len() {
            for _ in 0..SIM_SEEDS {
                ops.push(Op::Simulate {
                    net,
                    seed: rng.next_u64(),
                });
            }
        }
        rng.shuffle(&mut ops);
        let mut references: Vec<Option<BTreeMap<ItemId, AgentId>>> = vec![None; nets.len()];
        let mut traced_refs = references.clone();
        for op in ops {
            let (name, answer) = match op {
                Op::Explore(i) => {
                    let e = &deck[i];
                    // Simulators are built outside the timers.
                    let (sim, traced_sim) = ((e.build)(), args.trace.then(|| (e.build)()));
                    let ((ms, verdict), traced) = tracer.paired(
                        args,
                        pass,
                        &e.name,
                        || {
                            let start = Instant::now();
                            let verdict = check_consensus(sim, CheckerOptions::default());
                            (ms_since(start), verdict)
                        },
                        |layers| {
                            let sim = traced_sim.expect("built for a traced run");
                            traced_explore(layers, sim, e.converges)
                        },
                    );
                    timed.add(&e.name, ms);
                    if let Some(answer) = traced {
                        tally.record(&format!("traced {}", e.name), answer);
                    }
                    (e.name.clone(), explore_answer(e.converges, &verdict))
                }
                Op::Simulate { net, seed } => {
                    let (kind, network, instance) = &nets[net];
                    let name = format!("simulate:{kind}");
                    let build = || scenarios::compliant(network.clone(), SIM_ITEMS, *instance);
                    let (mut sim, traced_sim) = (build(), args.trace.then(build));
                    let ((ms, out), traced) = tracer.paired(
                        args,
                        pass,
                        &name,
                        || {
                            let start = Instant::now();
                            let out = sim.run_async(seed, SIM_MAX_STEPS, FaultPlan::default());
                            (ms_since(start), out)
                        },
                        |layers| {
                            let sim = traced_sim.expect("built for a traced run");
                            traced_simulate(layers, sim, seed, &mut traced_refs[net])
                        },
                    );
                    timed.add(&name, ms);
                    if let Some(answer) = traced {
                        tally.record(&format!("traced {name}"), answer);
                    }
                    (name, simulate_answer(&sim, &out, &mut references[net]))
                }
            };
            tally.record(&name, answer);
        }
        tracer.layers.end_pass();
    });
    timed.wall_s = wall_s;
    let end_to_end = timed.end_to_end(&setups);

    timed.print_summary("explicit-state");
    let metrics = if args.trace {
        crate::print_reconciliation("explicit-state", &tracer.reconcile(&timed));
        let mut probe_layers = Layers::default();
        probe::run(&mut probe_layers, &mut tally);
        per_layer_metrics(&[&tracer.layers, &probe_layers])
    } else {
        end_to_end
    };
    Report { tally, metrics }
}
