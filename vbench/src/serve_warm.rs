//! `serve-warm`: an in-process daemon with two pool threads, cold-filled
//! with the load generator's full deck during set-up; then two
//! connections replay the deck in seeded order and every request is a
//! verdict hit. This times the wire, key, lookup and pool hand-off with
//! no translation or solving; cold misses land in `setup_s`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mca_obs::Json;
use mca_serve::wire::{self, CacheDisposition, Request, Response, WireEncoding};
use mca_serve::{request, Client, ResultCache, Server, ServerConfig, ServerHandle};
use mca_verify::{DynamicModel, NumberEncoding};

use crate::answers::{self, Failure, Tally};
use crate::layers::{ms_since, per_layer_metrics, Layers};
use crate::stats::{median, Rng};
use crate::{oracle, probe, repeat_setup, run_passes, Args, Reconciled, Report, Timed};

/// Connections replaying the deck, one closed loop each.
const CLIENTS: usize = 2;

/// One deck request with its expected answer.
pub struct Entry {
    /// `<kind>:<scenario>:<encoding>[:pre]`.
    pub name: String,
    /// The request.
    pub req: Request,
    /// The consensus verdict a check must carry; `None` for a lint
    /// request, whose report must have no error finding.
    pub expected_valid: Option<bool>,
}

impl Entry {
    /// Builds the entry, computing the expected verdict with the oracle.
    pub fn new(req: Request) -> Entry {
        let (spec, encoding, suffix) = match &req {
            Request::Check {
                scenario,
                encoding,
                preprocess,
            } => (scenario, *encoding, if *preprocess { ":pre" } else { "" }),
            Request::Lint { scenario, encoding } => (scenario, *encoding, ""),
            other => panic!("not a cacheable request: {other:?}"),
        };
        let (label, scenario) = request::resolve_scenario(spec).expect("deck scenarios resolve");
        let expected_valid =
            matches!(req, Request::Check { .. }).then(|| oracle::consensus_valid(&scenario));
        Entry {
            name: format!("{}:{label}:{}{suffix}", req.kind(), encoding.slug()),
            req,
            expected_valid,
        }
    }
}

/// Checks a response's payload: a verdict's `valid` field against the
/// expected answer; a lint report's closing tally for zero errors, since
/// every shipped scenario lints clean.
fn check_payload(entry: &Entry, payload: &[u8]) -> Result<(), Failure> {
    let text =
        std::str::from_utf8(payload).map_err(|_| Failure::Wrong("payload is not UTF-8".into()))?;
    let last = text.lines().last().unwrap_or("");
    let json =
        Json::parse(last).map_err(|e| Failure::Wrong(format!("payload is not JSON: {e:?}")))?;
    match entry.expected_valid {
        Some(expected) => match json.get("valid") {
            Some(Json::Bool(valid)) => answers::verdict(expected, *valid),
            _ => Err(Failure::Wrong("verdict without a `valid` field".into())),
        },
        None => match (
            json.get("event").and_then(Json::as_str),
            json.get("errors").and_then(Json::as_u64),
        ) {
            (Some("lint-done"), Some(0)) => Ok(()),
            (Some("lint-done"), Some(n)) => Err(Failure::Wrong(format!("{n} lint errors"))),
            _ => Err(Failure::Wrong(
                "lint report without a lint-done tally".into(),
            )),
        },
    }
}

/// The disposition and payload of a cacheable response.
fn payload(resp: &Response) -> Result<(CacheDisposition, &[u8]), Failure> {
    match resp {
        Response::Verdict { cache, payload } | Response::LintReport { cache, payload } => {
            Ok((*cache, payload))
        }
        Response::Error { code, message } => {
            Err(Failure::Error(format!("server error {code}: {message}")))
        }
        other => Err(Failure::Wrong(format!("unexpected response {other:?}"))),
    }
}

/// Checks a warm response: a verdict hit, byte-equal to the cold-fill
/// payload, with the expected answer.
fn check_warm(
    entry: &Entry,
    cold: &[u8],
    resp: &Result<Response, wire::WireError>,
) -> Result<(), Failure> {
    let resp = resp
        .as_ref()
        .map_err(|e| Failure::Error(format!("{e:?}")))?;
    let (cache, bytes) = payload(resp)?;
    if cache != CacheDisposition::VerdictHit {
        return Err(Failure::Wrong(format!(
            "warm request served as {}",
            cache.label()
        )));
    }
    if bytes != cold {
        return Err(Failure::Wrong(
            "warm payload differs from the cold-fill payload".into(),
        ));
    }
    check_payload(entry, bytes)
}

/// A started daemon and the cold-fill payload of each deck entry.
struct Served {
    handle: ServerHandle,
    cold: Vec<Vec<u8>>,
}

/// Set-up: start the daemon and cold-fill it with the deck over
/// [`CLIENTS`] connections, each taking the next unsent entry.
fn start_and_fill(deck: &[Entry], tally: &mut Tally, cold_ms: &mut Vec<f64>) -> Served {
    let handle = Server::start(&ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("start the in-process daemon on a free local port");
    let addr = handle.addr();
    let next = AtomicUsize::new(0);
    let mut cold: Vec<Option<(Result<Response, wire::WireError>, f64)>> =
        deck.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the daemon");
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(entry) = deck.get(i) else { return out };
                        let start = Instant::now();
                        let resp = client.request(&entry.req);
                        out.push((i, resp, ms_since(start)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, resp, ms) in h.join().expect("cold-fill client panicked") {
                cold[i] = Some((resp, ms));
            }
        }
    });
    let cold = deck
        .iter()
        .zip(cold)
        .map(|(entry, slot)| {
            let (resp, ms) = slot.expect("every entry filled");
            cold_ms.push(ms);
            let answer = resp
                .as_ref()
                .map_err(|e| Failure::Error(format!("{e:?}")))
                .and_then(|r| payload(r).map(|(_, p)| p.to_vec()));
            let bytes = answer.as_ref().map(Vec::clone).unwrap_or_default();
            tally.record(
                &format!("cold {}", entry.name),
                answer.and_then(|p| check_payload(entry, &p)),
            );
            bytes
        })
        .collect();
    Served { handle, cold }
}

fn number_encoding(e: WireEncoding) -> NumberEncoding {
    match e {
        WireEncoding::Naive => NumberEncoding::NaiveInt,
        WireEncoding::Optimized => NumberEncoding::OptimizedValue,
    }
}

/// The verdict-tier key of a deck request, computed as the daemon
/// computes it — resolve the scenario, build the model, hash it — with
/// each call timed into `layers` as its layer.
fn key_path(layers: &mut Layers, req: &Request) -> String {
    let (spec, encoding, kind, config) = match req {
        Request::Check {
            scenario,
            encoding,
            preprocess,
        } => (
            scenario,
            *encoding,
            "check",
            if *preprocess {
                "default+pre"
            } else {
                "default"
            },
        ),
        Request::Lint { scenario, encoding } => (scenario, *encoding, "lint", "default"),
        other => panic!("not a cacheable request: {other:?}"),
    };
    let resolved = layers.time("resolve", || request::resolve_scenario(spec));
    let (_, scenario) = resolved.expect("deck scenarios resolve");
    let scope = scenario.scope_label();
    let dm = layers.time("build", || {
        DynamicModel::build(number_encoding(encoding), scenario)
    });
    let hash = layers.time("hash", || dm.content_hash());
    request::verdict_key(kind, hash, &scope, encoding, config)
}

/// A local result cache holding the cold-fill payloads, so the traced
/// run can time `request::execute` on a warm cache in-process.
pub fn warm_cache(deck: &[Entry], cold: &[Vec<u8>]) -> ResultCache {
    let cache = ResultCache::new(64 << 20);
    for (entry, bytes) in deck.iter().zip(cold) {
        cache.put_verdict(
            &key_path(&mut Layers::default(), &entry.req),
            std::sync::Arc::new(bytes.clone()),
            &mut Vec::new(),
        );
    }
    cache
}

/// What one traced request measured: `request::execute` timed whole,
/// and the sum of the key-path layers it is made of on a hit.
pub struct TracedRequest {
    /// Milliseconds in `request::execute` on the warm local cache.
    pub execute_ms: f64,
    /// Resolve + build + hash + lookup milliseconds.
    pub parts_ms: f64,
    /// Milliseconds of the round trip.
    pub roundtrip_ms: f64,
    /// The answer checks of the round trip and the local execution.
    pub answer: Result<(), Failure>,
}

/// One traced request: the key path (resolve, build, hash, lookup) call
/// by call, `request::execute` on the warm local cache, the wire codec,
/// then the round trip. Transport is the round trip minus execute and
/// wire.
pub fn traced_request(
    layers: &mut Layers,
    client: &mut Client,
    cache: &ResultCache,
    entry: &Entry,
    cold: &[u8],
) -> TracedRequest {
    let mut part = Layers::default();
    let key = key_path(&mut part, &entry.req);
    let hit = part.time("lookup", || cache.get_verdict(&key, &mut Vec::new()));
    let parts_ms = part.sum_ms();
    layers.merge(part);

    let start = Instant::now();
    let executed = request::execute(&entry.req, cache);
    let execute_ms = ms_since(start);
    let start = Instant::now();
    let decoded_req = wire::decode_request(&wire::encode_request(&entry.req));
    let decoded_resp = wire::decode_response(&wire::encode_response(&executed.response));
    let wire_ms = ms_since(start);
    let start = Instant::now();
    let resp = client.request(&entry.req);
    let roundtrip_ms = ms_since(start);

    layers.add_ms("execute", execute_ms);
    layers.add_ms("wire", wire_ms);
    layers.add_ms("roundtrip", roundtrip_ms);
    layers.add_ms("transport", roundtrip_ms - execute_ms - wire_ms);
    layers.count("requests", 1);
    let disposition = resp
        .as_ref()
        .ok()
        .and_then(|r| payload(r).ok())
        .map(|(d, _)| d);
    layers.count(
        "hits",
        u64::from(disposition == Some(CacheDisposition::VerdictHit)),
    );
    let warm = check_warm(entry, cold, &resp);
    let local = if hit.is_none() {
        Err(Failure::Wrong("local warm cache missed".into()))
    } else if decoded_req.as_ref() != Ok(&entry.req)
        || decoded_resp.as_ref() != Ok(&executed.response)
    {
        Err(Failure::Wrong("wire codec did not round-trip".into()))
    } else {
        check_warm(entry, cold, &Ok(executed.response))
    };
    TracedRequest {
        execute_ms,
        parts_ms,
        roundtrip_ms,
        answer: answers::all([warm, local]),
    }
}

/// What one client thread of the timed phase measured.
#[derive(Default)]
struct ClientRun {
    timed: Timed,
    tally: Tally,
    layers: Layers,
    /// Per query: `request::execute` milliseconds.
    execute: BTreeMap<String, Vec<f64>>,
    /// Per query: the summed key-path layers of the same requests.
    parts: BTreeMap<String, Vec<f64>>,
    /// Per query: round-trip milliseconds of the traced requests.
    traced: BTreeMap<String, Vec<f64>>,
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let deck: Vec<Entry> = mca_serve::load::full_deck()
        .into_iter()
        .map(Entry::new)
        .collect();
    let mut tally = Tally::default();
    let mut setup_layers = Layers::default();
    let mut earlier_cold = Vec::new();
    let mut cold_ms = Vec::new();
    let (served, setups) = repeat_setup(
        || start_and_fill(&deck, &mut tally, &mut cold_ms),
        |prev: Served| {
            prev.handle.join();
            earlier_cold.push(prev.cold);
        },
    );
    for ms in &cold_ms {
        setup_layers.add_ms("cold", *ms);
    }
    setup_layers.end_pass();
    for (n, cold) in earlier_cold.iter().enumerate() {
        let same = if *cold == served.cold {
            Ok(())
        } else {
            Err(Failure::Wrong(
                "cold payloads differ between daemons".into(),
            ))
        };
        tally.record(&format!("cold fill {n} matches the last"), same);
    }
    let local_cache = args.trace.then(|| warm_cache(&deck, &served.cold));

    let addr: SocketAddr = served.handle.addr();
    let start = Instant::now();
    let runs: Vec<(ClientRun, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (deck, cold, cache) = (&deck, &served.cold, local_cache.as_ref());
                let mut rng = Rng::new(args.seed ^ (0x5eed_0000 + c as u64));
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the daemon");
                    let mut run = ClientRun::default();
                    run_passes(args, |_| {
                        let mut order: Vec<usize> = (0..deck.len()).collect();
                        rng.shuffle(&mut order);
                        for i in order {
                            let entry = &deck[i];
                            let t = Instant::now();
                            let resp = client.request(&entry.req);
                            run.timed.add(&entry.name, ms_since(t));
                            run.tally
                                .record(&entry.name, check_warm(entry, &cold[i], &resp));
                            if let Some(cache) = cache {
                                let tr = traced_request(
                                    &mut run.layers,
                                    &mut client,
                                    cache,
                                    entry,
                                    &cold[i],
                                );
                                let name = &entry.name;
                                run.traced
                                    .entry(name.clone())
                                    .or_default()
                                    .push(tr.roundtrip_ms);
                                run.execute
                                    .entry(name.clone())
                                    .or_default()
                                    .push(tr.execute_ms);
                                run.parts.entry(name.clone()).or_default().push(tr.parts_ms);
                                run.tally.record(&format!("traced {name}"), tr.answer);
                            }
                        }
                        run.layers.end_pass();
                    });
                    (run, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut timed = Timed::default();
    let mut layers = Layers::default();
    let (mut execute, mut parts, mut traced) = (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
    for (run, wall) in runs {
        timed.merge(run.timed);
        timed.wall_s = timed.wall_s.max(wall);
        tally.merge(run.tally);
        layers.merge(run.layers);
        for (into, from) in [
            (&mut execute, run.execute),
            (&mut parts, run.parts),
            (&mut traced, run.traced),
        ] {
            for (k, v) in from {
                into.entry(k).or_insert_with(Vec::new).extend(v);
            }
        }
    }
    let end_to_end = timed.end_to_end(&setups);
    served.handle.join();

    timed.print_summary("serve-warm");
    let metrics = if args.trace {
        // `request::execute` on a hit is the key path: resolve, build,
        // hash, lookup. The overhead compares the round trips of traced
        // requests with untraced ones.
        let rows: Vec<Reconciled> = timed
            .samples
            .iter()
            .map(|(q, untraced)| Reconciled {
                query: q.clone(),
                whole_ms: median(&execute[q]),
                layer_sum_ms: median(&parts[q]),
                untraced_ms: median(untraced),
                traced_ms: median(&traced[q]),
            })
            .collect();
        crate::print_reconciliation("serve-warm", &rows);
        let mut probe_layers = Layers::default();
        probe::run(&mut probe_layers, &mut tally);
        per_layer_metrics(&[&layers, &setup_layers, &probe_layers])
    } else {
        end_to_end
    };
    Report { tally, metrics }
}
