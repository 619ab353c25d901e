//! The layer probe of traced runs: a small fixed deck that calls into
//! every layer, so a traced run reports every per-layer metric even for
//! layers its workload does not exercise. Its inputs do not depend on
//! the seed, so on those layers the metric should not move at all.

use std::time::Instant;

use mca_core::scenarios;
use mca_serve::wire::{Request, ScenarioSpec, WireEncoding};
use mca_serve::{Client, Server, ServerConfig};
use mca_verify::{DynamicModel, DynamicScenario, NumberEncoding};

use crate::answers::{self, Tally};
use crate::check_cold::traced_check;
use crate::explicit_state::{traced_explore, traced_simulate, twin};
use crate::layers::{ms_since, Layers};
use crate::serve_warm::{traced_request, warm_cache, Entry};

/// Probe rounds; each is one pass of the probe deck.
const ROUNDS: usize = 5;

/// Runs the probe, recording into `layers` and checking every answer.
pub fn run(layers: &mut Layers, tally: &mut Tally) {
    let scenario = DynamicScenario::two_agent_compliant();
    let enc = NumberEncoding::OptimizedValue;
    let cnf = DynamicModel::build(enc, scenario.clone())
        .consensus_cnf()
        .expect("the probe scenario translates");
    let entry = Entry::new(Request::Check {
        scenario: ScenarioSpec::Named("two_agent_compliant".into()),
        encoding: WireEncoding::Optimized,
        preprocess: false,
    });
    let server = Server::start(&ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("start the probe daemon on a free local port");
    let mut client = Client::connect(server.addr()).expect("connect to the probe daemon");
    let start = Instant::now();
    let cold = client.request(&entry.req);
    layers.add_ms("cold", ms_since(start));
    let cold = match cold {
        Ok(mca_serve::Response::Verdict { payload, .. }) => payload,
        other => panic!("probe cold fill failed: {other:?}"),
    };
    let cache = warm_cache(std::slice::from_ref(&entry), std::slice::from_ref(&cold));
    let twin_3x2 = DynamicScenario::at_scope(3, 2);
    let twin_3x2_converges = crate::oracle::consensus_valid(&twin_3x2);

    for _ in 0..ROUNDS {
        let check = traced_check(layers, enc, scenario.clone())
            .and_then(|(valid, witness)| answers::all([answers::verdict(true, valid), witness]));
        tally.record("probe check", check);
        let dm = DynamicModel::build(enc, scenario.clone());
        std::hint::black_box(layers.time("hash", || dm.content_hash()));
        std::hint::black_box(layers.time("preprocess", || mca_sat::simplify(&cnf)));
        let served = traced_request(layers, &mut client, &cache, &entry, &cold);
        tally.record("probe request", served.answer);
        let explored = traced_explore(layers, twin(&twin_3x2), twin_3x2_converges);
        tally.record("probe exploration", explored);
        let mut reference = None;
        for seed in 0..10 {
            let sim = scenarios::compliant(mca_core::Network::line(6), 4, 1);
            let simulated = traced_simulate(layers, sim, seed, &mut reference);
            tally.record("probe simulation", simulated);
        }
        layers.end_pass();
    }
    server.join();
}
