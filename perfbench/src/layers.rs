//! The traced run: per-layer figures. Layers are timed from the
//! benchmark's side (calls into each layer's public functions, spans
//! around them) and the program's own counters are read through its
//! snapshot functions. End-to-end figures never come from this run.

use crate::drive::{ByOp, Conn, Tally};
use crate::fleet::{self, Fleet};
use crate::trace::{self, Spans};
use crate::workload::reference;
use crate::{median, pct, print_result, set_up, sorted, verify_deferred, Bench, Metric};
use net::wire::{
    decode_payload, encode_request, encode_response, RequestFrame, RespStatus, ResponseFrame,
};
use obs::{HistSnapshot, Snapshot};
use serve::pool::JobClass;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Shares of the run's seconds given to each sub-phase.
const SERVICE_SHARE: f64 = 0.10;
const WIRE_SHARE: f64 = 0.05;
const ROUTER_SHARE: f64 = 0.25;
const DIRECT_SHARE: f64 = 0.15;
const INPROC_SHARE: f64 = 0.15;
const LOADED_SHARE: f64 = 0.30;
/// Untraced/traced chunk pairs in the router serial sub-phase.
const OVERHEAD_PAIRS: usize = 4;
/// Frames per wire-probe batch.
const WIRE_FRAMES: u64 = 64;

const CLASSES: [&str; 3] = ["interactive", "batch", "bulk"];

/// Per-layer metric, as it goes into the JSON line.
fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub fn run(bench: &Bench, budget: Duration, epoch: Instant) -> Result<bool, String> {
    let mut spans = Spans::new(epoch, 0);
    let mut all = Tally::default();

    let mut probe_spans = Spans::new(epoch, 1 << 56);
    let service = service_probes(bench, budget.mul_f64(SERVICE_SHARE), &mut probe_spans);
    spans.absorb(probe_spans);
    let (encode_ns, decode_ns, frames) = wire_probes(bench, budget.mul_f64(WIRE_SHARE));

    let (fleet, setup, primed) = set_up(bench)?;
    all.absorb(primed);
    println!(
        "layers setup {:.4} s (not a per-layer figure)",
        setup.as_secs_f64()
    );
    let mut ledgers = Ok(());

    // Router serial: untraced and traced chunks alternate, so the
    // overhead ratio compares like with like.
    let mut conn = [Conn::open(fleet.addr()).map_err(|e| format!("connect router: {e}"))?];
    let chunk = budget.mul_f64(ROUTER_SHARE / (2 * OVERHEAD_PAIRS) as f64);
    let (mut plain, mut traced) = (ByOp::default(), ByOp::default());
    let mut owners = BTreeMap::new();
    for _ in 0..OVERHEAD_PAIRS {
        let mut t = bench.phase(&mut conn, 1, Instant::now() + chunk, None, true, None);
        plain.absorb(std::mem::take(&mut t.lat));
        owners.extend(t.owners.drain(..));
        all.absorb(t);
        let mut t = bench.phase(
            &mut conn,
            1,
            Instant::now() + chunk,
            None,
            false,
            Some(&mut spans),
        );
        traced.absorb(std::mem::take(&mut t.lat));
        all.absorb(t);
    }
    drop(conn);
    ledgers = ledgers.and_then(|()| fleet.check_ledgers());
    let (plain_p50, router_p50) = (plain.p50_us(), traced.p50_us());
    let overhead = router_p50 / plain_p50;

    // Keys per owning backend, so direct and in-process requests meet
    // the same cache state the router would have led them to.
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); fleet::BACKENDS];
    for (&key, &b) in &owners {
        if let Some(list) = owned.get_mut(b as usize) {
            list.push(key);
        }
    }
    let keyed = bench.workload.key_space().is_some();

    // Direct to each backend, serial.
    let mut direct = ByOp::default();
    let per_backend = budget.mul_f64(DIRECT_SHARE / fleet::BACKENDS as f64);
    for (b, backend) in fleet.backends.iter().enumerate() {
        if keyed && owned[b].is_empty() {
            continue;
        }
        let mut conn = [
            Conn::open(backend.local_addr()).map_err(|e| format!("connect backend {b}: {e}"))?
        ];
        let among = keyed.then_some(owned[b].as_slice());
        let until = Instant::now() + per_backend;
        let mut t = bench.phase(&mut conn, 1, until, among, false, Some(&mut spans));
        direct.absorb(std::mem::take(&mut t.lat));
        all.absorb(t);
    }
    ledgers = ledgers.and_then(|()| fleet.check_ledgers());
    let direct_p50 = direct.p50_us();

    // In-process submit + wait on each backend's CourseServer.
    let per_backend = budget.mul_f64(INPROC_SHARE / fleet::BACKENDS as f64);
    let (mut inproc, mut submit) = (ByOp::default(), Vec::new());
    for (b, backend) in fleet.backends.iter().enumerate() {
        if keyed && owned[b].is_empty() {
            continue;
        }
        let among = keyed.then_some(owned[b].as_slice());
        let mut keys = bench.keys(bench.next_phase(), 0, among);
        let until = Instant::now() + per_backend;
        let mut req_id = 2u64 << 56 | (b as u64) << 52;
        let mut own = Spans::new(epoch, req_id);
        while Instant::now() < until {
            let Some(key) = keys.next() else { break };
            req_id += 1;
            let req = bench.workload.request(key);
            let t0 = Instant::now();
            let ticket = backend.course().submit(req);
            let t1 = Instant::now();
            all.sent += 1;
            let resp = match ticket {
                Ok(ticket) => ticket.wait(),
                Err(e) => {
                    all.failed += 1;
                    all.first_failure
                        .get_or_insert(format!("in-process submit refused: {e:?}"));
                    continue;
                }
            };
            let t2 = Instant::now();
            let root = own.next_id();
            own.record("serve.submit", root, req_id, t0, t1);
            own.record("serve.wait", root, req_id, t1, t2);
            own.record_as(root, "serve.request", 0, req_id, t0, t2);
            let good = resp.ok
                && match &bench.refs {
                    Some(refs) => refs[key as usize] == resp.body,
                    None => {
                        all.deferred.push(crate::workload::defer(key, &resp.body));
                        true
                    }
                };
            if good {
                all.ok += 1;
                inproc.push(bench.workload.op(key), (t2 - t0).as_nanos() as u64);
                submit.push((t1 - t0).as_nanos() as u64);
            } else {
                all.failed += 1;
                all.first_failure
                    .get_or_insert(format!("in-process key {key}: {:?}", resp.body));
            }
        }
        spans.absorb(own);
    }
    ledgers = ledgers.and_then(|()| fleet.check_ledgers());
    let submit = sorted(submit);
    let inproc_p50 = inproc.p50_us();

    // Loaded phase through the router, counters read around it.
    let before = Probe::take(&fleet);
    let mut conns = (0..crate::LOADED_CONNS)
        .map(|_| Conn::open(fleet.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect router: {e}"))?;
    let mut t = bench.phase(
        &mut conns,
        crate::LOADED_WINDOW,
        Instant::now() + budget.mul_f64(LOADED_SHARE),
        None,
        false,
        None,
    );
    drop(conns);
    ledgers = ledgers.and_then(|()| fleet.check_ledgers());
    let after = Probe::take(&fleet);
    let loaded = std::mem::take(&mut t.lat).pooled();
    let loaded_requests = t.ok;
    all.absorb(t);
    let totals = fleet.counters();
    fleet.shutdown();

    let wrong = verify_deferred(bench, &all.deferred);
    let failed = all.failed + wrong;

    let d = |name: &str| after.counter(name).saturating_sub(before.counter(name));
    let stage = |what: &str| {
        let mut h = HistSnapshot::empty();
        for class in CLASSES {
            h.merge(&after.hist_since(&before, &format!("serve.stage.{what}_us.{class}")));
        }
        h
    };
    let queue = stage("queue");
    let service_hist = stage("service");
    let rtt = after.hist_since(&before, "router.backend.rtt_us");
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    let evictions = after.cache_evictions - before.cache_evictions;
    let wakeups = d("reactor.wakeups");
    let (steals, claims) = (d("pool.steals"), d("pool.claims"));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let self_times = trace::self_times(&spans.list);
    let span_file = write_spans(bench.workload.name(), &spans);

    let probes: Vec<String> = service
        .iter()
        .map(|s| format!("{:.1} us n={} [{}]", s.us, s.n, s.label))
        .collect();
    println!(
        "layers service probes (direct calls, median of n): {}",
        probes.join("; ")
    );
    println!(
        "layers wire encode {encode_ns:.1} ns, decode {decode_ns:.1} ns per request+response pair \
         (median of batches over {frames} frames)"
    );
    println!(
        "layers serial p50 (mean over operations): router {router_p50:.1} us (n={}), direct {direct_p50:.1} us (n={}), \
         in-process {inproc_p50:.1} us (n={}); submit p50 {:.2} us",
        traced.len(),
        direct.len(),
        inproc.len(),
        pct(&submit, 50.0) as f64 / 1e3
    );
    println!(
        "layers trace overhead: traced serial p50 {:.1} us / untraced {:.1} us (n={} / {})",
        router_p50,
        plain_p50,
        traced.len(),
        plain.len()
    );
    println!(
        "layers loaded: n={} p99 {:.1} us; router rtt p50 {} us (n={}); queue p50/p90 {}/{} us (n={}); \
         service p50 {} us (n={})",
        loaded.len(),
        pct(&loaded, 99.0) as f64 / 1e3,
        rtt.percentile(50),
        rtt.count(),
        queue.percentile(50),
        queue.percentile(90),
        queue.count(),
        service_hist.percentile(50),
        service_hist.count()
    );
    println!(
        "layers ratios: cache.hit_ratio {:.4} = {hits} hits / {lookups} lookups; \
         cache.evictions_per_req {:.4} = {evictions} / {loaded_requests} requests; \
         pool.steals_per_claim {:.4} = {steals} / {claims}; \
         reactor.wakeups_per_req {:.4} = {wakeups} / {loaded_requests}",
        ratio(hits, lookups),
        ratio(evictions, loaded_requests),
        ratio(steals, claims),
        ratio(wakeups, loaded_requests)
    );
    println!("{}", totals.describe());
    for (name, (n, total, own)) in &self_times {
        println!(
            "span {name}: n={n} mean {:.2} us, self mean {:.2} us",
            *total as f64 / 1e3 / *n as f64,
            *own as f64 / 1e3 / *n as f64
        );
    }
    println!(
        "spans {} written to {span_file} ({} more timed but not kept)",
        spans.list.len(),
        spans.dropped
    );
    if let Some(why) = &all.first_failure {
        println!("first failure: {why}");
    }
    let ledgers = ledgers.and_then(|()| crate::client_ledger(&all));
    crate::report_ledgers(&ledgers);
    let correct = failed == 0 && ledgers.is_ok();
    print_result(
        correct,
        all.sent,
        failed,
        &[
            m("router.hop_us", "us", router_p50 - direct_p50),
            m("router.backend_rtt_p50_us", "us", rtt.percentile(50) as f64),
            m("router.rerouted", "count", totals.rerouted as f64),
            m("net.hop_us", "us", direct_p50 - inproc_p50),
            m(
                "reactor.wakeups_per_req",
                "1/req",
                ratio(wakeups, loaded_requests),
            ),
            m("wire.encode_ns", "ns", encode_ns),
            m("wire.decode_ns", "ns", decode_ns),
            m("serve.inproc_us", "us", inproc_p50),
            m("serve.submit_us", "us", pct(&submit, 50.0) as f64 / 1e3),
            m("serve.shed", "count", totals.shed as f64),
            m("serve.rejected", "count", totals.rejected as f64),
            m("serve.queue_p50_us", "us", queue.percentile(50) as f64),
            m("serve.queue_p90_us", "us", queue.percentile(90) as f64),
            m("pool.steals_per_claim", "ratio", ratio(steals, claims)),
            m("cache.hit_ratio", "ratio", ratio(hits, lookups)),
            m(
                "cache.evictions_per_req",
                "1/req",
                ratio(evictions, loaded_requests),
            ),
            m(
                "serve.service_p50_us",
                "us",
                service_hist.percentile(50) as f64,
            ),
            m("service.life_us", "us", service[0].us),
            m("service.memtrace_us", "us", service[1].us),
            m("service.grade_us", "us", service[2].us),
            m(
                "client.serial_p99_us",
                "us",
                pct(&plain.pooled(), 99.0) as f64 / 1e3,
            ),
            m(
                "client.loaded_p99_us",
                "us",
                pct(&loaded, 99.0) as f64 / 1e3,
            ),
            m("trace.overhead_ratio", "ratio", overhead),
        ],
    );
    Ok(correct)
}

/// One service's direct calls: median µs, call count, parameters.
struct ServiceTime {
    us: f64,
    n: usize,
    label: String,
}

/// Times direct calls into `life`, `memsim` and `cs31::autograde` with
/// the workload's parameters, round-robin so drift hits all three alike.
fn service_probes(bench: &Bench, length: Duration, spans: &mut Spans) -> [ServiceTime; 3] {
    const NAMES: [&str; 3] = ["service.life", "service.memtrace", "service.grade"];
    let mut times: [Vec<f64>; 3] = Default::default();
    let until = Instant::now() + length;
    let mut key = 0;
    while Instant::now() < until || times[0].is_empty() {
        for (op, req) in bench.workload.service_probes(key).into_iter().enumerate() {
            let t0 = Instant::now();
            let body = std::hint::black_box(reference(std::hint::black_box(&req)));
            let t1 = Instant::now();
            drop(body);
            spans.record(NAMES[op], 0, key, t0, t1);
            times[op].push((t1 - t0).as_nanos() as f64 / 1e3);
        }
        key += 1;
    }
    let first = bench.workload.service_probes(0);
    std::array::from_fn(|op| ServiceTime {
        us: median(&times[op]),
        n: times[op].len(),
        label: label(&first[op]),
    })
}

fn label(req: &serve::server::Request) -> String {
    use serve::server::Request;
    match req {
        Request::Life { w, h, steps, .. } => format!("Life {w}x{h}x{steps}"),
        Request::MemTrace {
            pattern, accesses, ..
        } => format!("MemTrace {accesses} ({pattern} first)"),
        Request::Grade { .. } => "Grade sum_array".to_string(),
        other => format!("{other:?}"),
    }
}

/// Times `encode_request` + `encode_response` and `decode_payload` of
/// both, over the workload's own frames. Returns ns per request and
/// response pair for encode and decode, and the frame count.
fn wire_probes(bench: &Bench, length: Duration) -> (f64, f64, u64) {
    let keys: Vec<u64> = match bench.workload.key_space() {
        Some(n) => (0..WIRE_FRAMES).map(|k| k % n).collect(),
        // Keys far above any the run sends, so the fleet never sees them.
        None => (0..WIRE_FRAMES).map(|k| u64::MAX / 2 + k).collect(),
    };
    let frames: Vec<(RequestFrame, ResponseFrame)> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| {
            let req = bench.workload.request(key);
            let body = reference(&req);
            (
                RequestFrame {
                    id: i as u64,
                    class: JobClass::Batch,
                    priority: 128,
                    deadline_budget_ms: None,
                    req,
                },
                ResponseFrame {
                    id: i as u64,
                    status: RespStatus::Ok,
                    retry_after_ms: 0,
                    backend: 0,
                    body,
                },
            )
        })
        .collect();
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .map(|(q, r)| (encode_request(q), encode_response(r)))
        .collect();
    let n = frames.len() as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let until = Instant::now() + length;
    while Instant::now() < until || enc.is_empty() {
        let t0 = Instant::now();
        for (q, r) in &frames {
            std::hint::black_box(encode_request(std::hint::black_box(q)));
            std::hint::black_box(encode_response(std::hint::black_box(r)));
        }
        let t1 = Instant::now();
        for (q, r) in &encoded {
            let _ = std::hint::black_box(decode_payload(std::hint::black_box(&q[4..])));
            let _ = std::hint::black_box(decode_payload(std::hint::black_box(&r[4..])));
        }
        let t2 = Instant::now();
        enc.push((t1 - t0).as_nanos() as f64 / n);
        dec.push((t2 - t1).as_nanos() as f64 / n);
    }
    (median(&enc), median(&dec), frames.len() as u64)
}

/// The program's counters at one instant: the router's merged fleet
/// snapshot plus each backend's cache ledger.
struct Probe {
    snap: Snapshot,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl Probe {
    fn take(fleet: &Fleet) -> Probe {
        let c = fleet.counters();
        Probe {
            snap: fleet.router.merged_snapshot(),
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            cache_evictions: c.cache_evictions,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.snap.counter(name).unwrap_or(0)
    }

    /// The samples histogram `name` gained since `before`.
    fn hist_since(&self, before: &Probe, name: &str) -> HistSnapshot {
        let Some(now) = self.snap.hist(name) else {
            return HistSnapshot::empty();
        };
        let then: BTreeMap<usize, u64> = before
            .snap
            .hist(name)
            .map(|h| h.nonzero_buckets().into_iter().collect())
            .unwrap_or_default();
        let delta: Vec<(usize, u64)> = now
            .nonzero_buckets()
            .into_iter()
            .map(|(i, c)| (i, c.saturating_sub(then.get(&i).copied().unwrap_or(0))))
            .filter(|&(_, c)| c > 0)
            .collect();
        HistSnapshot::from_sparse(&delta, now.raw_min(), now.max()).unwrap_or_default()
    }
}

/// Writes the spans as JSON lines under `perfbench/out/`; returns the
/// path, or why it could not be written.
fn write_spans(workload: &str, spans: &Spans) -> String {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{workload}.jsonl"));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(&spans.list)))
    {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("nowhere ({e})"),
    }
}
