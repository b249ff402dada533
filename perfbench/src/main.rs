//! Seeded fleet benchmark for the course job server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hit_path|compute_mix|cache_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts one router in front of two backends on loopback, drives the
//! workload through it in closed loop, checks every response body
//! against a reference computed by calling the course libraries
//! directly, and prints a JSON result as the last line of stdout.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a
//! separate run that times the layers from the benchmark's side and
//! reads the program's own counters. See `perfbench/NOTES.md`.

mod drive;
mod fleet;
mod layers;
mod trace;
mod workload;

use drive::{Check, Conn, Drive, Keys, Tally};
use fleet::Fleet;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};
use trace::Spans;
use workload::{body_hash, mix, reference, Deferred, Kind, Rng, Workload};

const USAGE: &str = "usage: perfbench --workload <hit_path|compute_mix|cache_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fleets built per run; `setup_s` is their median set-up time.
const SETUPS: usize = 41;
/// Serial/loaded round pairs per run; each end-to-end timing is the
/// median over rounds.
const ROUNDS: usize = 30;
/// Share of each round spent in the serial phase.
const SERIAL_SHARE: f64 = 0.4;
/// Loaded phase: connections × requests outstanding per connection.
pub const LOADED_CONNS: usize = 2;
pub const LOADED_WINDOW: usize = 8;
/// Fresh keys sent through the router as warm-up by `compute_mix`.
const MIX_WARMUP: u64 = 24;

struct Args {
    workload: Workload,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let workload = Workload::parse(&name, seed).ok_or(format!(
        "unknown workload {name}; expected one of {:?}",
        workload::NAMES
    ))?;
    Ok(Args {
        workload,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything the clients of one run share.
pub struct Bench {
    pub workload: Workload,
    /// Reference bodies by key, for workloads with a key space.
    pub refs: Option<Vec<String>>,
    /// Next fresh key, for `compute_mix`.
    pub fresh: AtomicU64,
    pub workers: usize,
    phase: AtomicU64,
}

impl Bench {
    fn new(workload: Workload) -> Bench {
        let refs = workload
            .key_space()
            .map(|n| (0..n).map(|k| reference(&workload.request(k))).collect());
        Bench {
            workload,
            refs,
            fresh: AtomicU64::new(0),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            phase: AtomicU64::new(0),
        }
    }

    pub fn check(&self) -> Check<'_> {
        Check {
            workload: &self.workload,
            refs: self.refs.as_deref(),
        }
    }

    /// A key source for client `conn` of a new phase: seeded draws
    /// over the key space, or fresh keys.
    pub fn keys<'a>(&'a self, phase: u64, conn: usize, among: Option<&'a [u64]>) -> Keys<'a> {
        let rng = Rng::new(self.workload.seed ^ mix(phase << 8 | conn as u64));
        match (among, self.workload.key_space()) {
            (Some(list), _) => Keys::Among(rng, list),
            (None, Some(n)) => Keys::Uniform(rng, n),
            (None, None) => Keys::Fresh(&self.fresh),
        }
    }

    pub fn next_phase(&self) -> u64 {
        self.phase
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs `conns` in parallel, one client thread each, until `until`.
    /// With `spans`, every client records its requests' spans there.
    pub fn phase(
        &self,
        conns: &mut [Conn],
        window: usize,
        until: Instant,
        among: Option<&[u64]>,
        record_owners: bool,
        mut spans: Option<&mut Spans>,
    ) -> Tally {
        let phase = self.next_phase();
        let opts = Drive {
            window,
            until: Some(until),
            check: self.check(),
            record_owners,
        };
        let mut total = Tally::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let keys = self.keys(phase, i, among);
                    let opts = &opts;
                    // Span ids stay unique: each client numbers its own
                    // from a base no other phase or client uses.
                    let mut own = spans
                        .as_deref()
                        .map(|s| Spans::new(s.epoch(), (phase + 1) << 40 | (i as u64) << 32));
                    s.spawn(move || {
                        let tally = drive::run(conn, keys, opts, own.as_mut());
                        (tally, own)
                    })
                })
                .collect();
            for h in handles {
                let (tally, own) = h.join().expect("client thread panicked");
                total.absorb(tally);
                if let (Some(all), Some(own)) = (spans.as_deref_mut(), own) {
                    all.absorb(own);
                }
            }
        });
        total
    }
}

/// Builds a fleet and primes it. Returns the fleet, its set-up time and
/// the priming requests' tally.
pub fn set_up(bench: &Bench) -> Result<(Fleet, Duration, Tally), String> {
    let began = Instant::now();
    let fleet = Fleet::start(bench.workers).map_err(|e| format!("fleet start: {e}"))?;
    fleet.wait_ready()?;
    let opts = Drive {
        window: LOADED_WINDOW,
        until: None,
        check: bench.check(),
        record_owners: false,
    };
    let mut tally = Tally::default();
    let open = |addr| Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"));
    match bench.workload.kind {
        // Every key on every backend, so a hit stays a hit even when the
        // router spills a request to the owner's ring successor.
        Kind::HitPath => {
            let keys: Vec<u64> = (0..bench.workload.key_space().unwrap_or(0)).collect();
            for b in &fleet.backends {
                let mut conn = open(b.local_addr())?;
                tally.absorb(drive::run(&mut conn, Keys::Each(keys.iter()), &opts, None));
            }
        }
        // One pass over the key space through the router, so timing
        // starts at the steady-state hit ratio.
        Kind::CacheChurn => {
            let keys: Vec<u64> = (0..bench.workload.key_space().unwrap_or(0)).collect();
            let mut conn = open(fleet.addr())?;
            tally.absorb(drive::run(&mut conn, Keys::Each(keys.iter()), &opts, None));
        }
        Kind::ComputeMix => {
            let keys: Vec<u64> = (0..MIX_WARMUP)
                .map(|_| {
                    bench
                        .fresh
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                })
                .collect();
            let mut conn = open(fleet.addr())?;
            tally.absorb(drive::run(&mut conn, Keys::Each(keys.iter()), &opts, None));
        }
    }
    fleet.check_ledgers()?;
    Ok((fleet, began.elapsed(), tally))
}

/// Checks the deferred `(key, body hash)` pairs against references,
/// one thread per CPU. Returns the number of mismatches.
pub fn verify_deferred(bench: &Bench, deferred: &[Deferred]) -> u64 {
    if deferred.is_empty() {
        return 0;
    }
    let chunk = deferred.len().div_ceil(bench.workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = deferred
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|&&(key, hash)| {
                            body_hash(&reference(&bench.workload.request(u64::from(key)))) != hash
                        })
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .sum()
    })
}

/// Nearest-rank percentile of sorted samples.
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The client's half of the ledger: every request sent was answered.
pub fn client_ledger(all: &Tally) -> Result<(), String> {
    match all.unanswered {
        0 => Ok(()),
        n => Err(format!(
            "client sent {} but {n} were never answered",
            all.sent
        )),
    }
}

pub fn report_ledgers(ledgers: &Result<(), String>) {
    match ledgers {
        Ok(()) => println!(
            "ledgers balanced after every phase: router forwarded == relayed + synthesized_shed, \
             each backend admitted == completed + shed, client sent == answered"
        ),
        Err(why) => println!("ledger check failed: {why}"),
    }
}

/// One metric of the final JSON line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {v:?}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
}

/// The git commit of the working directory, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    match sha.trim() {
        "" => "unknown".to_string(),
        s => s.chars().take(12).collect(),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let bench = Bench::new(args.workload);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        bench.workload.name(),
        bench.workload.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance nproc={} git={} profile={} backends={} workers_per_backend={} \
         serial=1x1 loaded={}x{} closed_loop=true",
        bench.workers,
        git_sha(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        fleet::BACKENDS,
        bench.workers,
        LOADED_CONNS,
        LOADED_WINDOW
    );
    if args.trace {
        layers::run(&bench, Duration::from_secs(args.seconds), started)
    } else {
        end_to_end(&bench, Duration::from_secs(args.seconds))
    }
}

/// One end-to-end metric: its value in each round. The reported value
/// is the median over rounds, which neither a slow stretch of the host
/// nor a lucky fast round moves unless it covers half the run (see
/// NOTES.md).
struct Rounds {
    name: &'static str,
    unit: &'static str,
    values: Vec<f64>,
}

impl Rounds {
    fn new(name: &'static str, unit: &'static str) -> Rounds {
        Rounds {
            name,
            unit,
            values: Vec::with_capacity(ROUNDS),
        }
    }

    fn metric(&self) -> Metric {
        Metric {
            name: self.name,
            unit: self.unit,
            value: median(&self.values),
        }
    }

    fn describe(&self, samples: &str) -> String {
        format!("e2e {} {}", self.name, self.summary(samples))
    }

    fn summary(&self, samples: &str) -> String {
        let shown: Vec<String> = self.values.iter().map(|x| format!("{x:.1}")).collect();
        format!(
            "{:.2} {}  median of {} rounds ({samples}) [{}]",
            median(&self.values),
            self.unit,
            self.values.len(),
            shown.join(", ")
        )
    }
}

/// p50/p90/p99 of a pooled histogram of ns samples, in µs.
fn pooled(h: &obs::Histogram) -> String {
    let s = h.snapshot();
    let us = |p| s.percentile(p) as f64 / 1e3;
    format!(
        "pooled p50 {:.1} p90 {:.1} p99 {:.1} us over n={}",
        us(50),
        us(90),
        us(99),
        s.count()
    )
}

/// The untraced run: set-up timing, then rounds of a serial and a
/// loaded phase, every body checked.
fn end_to_end(bench: &Bench, budget: Duration) -> Result<bool, String> {
    let mut all = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fleet = None;
    for _ in 0..SETUPS {
        if let Some(old) = fleet.take() {
            Fleet::shutdown(old);
        }
        let (f, took, primed) = set_up(bench)?;
        setups.push(took.as_secs_f64());
        all.absorb(primed);
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one set-up");
    let primed = all.sent / SETUPS as u64;

    let open = || Conn::open(fleet.addr()).map_err(|e| format!("connect router: {e}"));
    let mut serial_conn = vec![open()?];
    let mut loaded_conns = (0..LOADED_CONNS)
        .map(|_| open())
        .collect::<Result<Vec<_>, _>>()?;
    let round = budget.div_f64(ROUNDS as f64);
    let mut rps = Rounds::new("throughput_rps", "1/s");
    let mut serial_p50 = Rounds::new("serial_p50_us", "us");
    let mut serial_ops: Vec<Rounds> = bench
        .workload
        .op_names()
        .iter()
        .map(|&op| Rounds::new(op, "us"))
        .collect();
    let mut loaded_p90 = Rounds::new("loaded_p90_us", "us");
    let mut cpu = Rounds::new("cpu_us_per_req", "us");
    let (serial_hist, loaded_hist) = (obs::Histogram::new(), obs::Histogram::new());
    let mut ledgers = Ok(());
    let mut wrong = 0;
    for _ in 0..ROUNDS {
        let until = Instant::now() + round.mul_f64(SERIAL_SHARE);
        let mut t = bench.phase(&mut serial_conn, 1, until, None, false, None);
        let mut lat = std::mem::take(&mut t.lat);
        serial_p50.values.push(lat.p50_us());
        for (rounds, p50) in serial_ops.iter_mut().zip(lat.op_p50s_us()) {
            rounds.values.push(p50);
        }
        lat.pooled().iter().for_each(|&ns| serial_hist.record(ns));
        // Checked between rounds, untimed, so the benchmark's memory
        // stays flat and `peak_rss_mb` measures the fleet.
        wrong += verify_deferred(bench, &std::mem::take(&mut t.deferred));
        all.absorb(t);
        ledgers = ledgers.and_then(|()| fleet.check_ledgers());

        let cpu0 = fleet::cpu_time();
        let t0 = Instant::now();
        let until = t0 + round.mul_f64(1.0 - SERIAL_SHARE);
        let mut t = bench.phase(&mut loaded_conns, LOADED_WINDOW, until, None, false, None);
        let took = t0.elapsed();
        let cpu_used = fleet::cpu_time().saturating_sub(cpu0);
        let lat = std::mem::take(&mut t.lat).pooled();
        loaded_p90.values.push(pct(&lat, 90.0) as f64 / 1e3);
        lat.iter().for_each(|&ns| loaded_hist.record(ns));
        rps.values.push(t.ok as f64 / took.as_secs_f64());
        cpu.values
            .push(cpu_used.as_secs_f64() * 1e6 / t.ok.max(1) as f64);
        wrong += verify_deferred(bench, &std::mem::take(&mut t.deferred));
        all.absorb(t);
        ledgers = ledgers.and_then(|()| fleet.check_ledgers());
    }
    let rss = fleet::peak_rss_mb();
    let counters = fleet.counters();
    drop(serial_conn);
    drop(loaded_conns);
    fleet.shutdown();

    wrong += verify_deferred(bench, &all.deferred);
    let failed = all.failed + wrong;
    let fail_frac = failed as f64 / all.sent.max(1) as f64;
    let loaded_n = loaded_hist.snapshot().count();

    println!(
        "e2e setup_s {:.4} s  median of {SETUPS} fleet set-ups, priming {primed} requests each {:?}",
        median(&setups),
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>()
    );
    println!("{}", rps.describe(&format!("{loaded_n} OK responses")));
    println!("{}", serial_p50.describe(&pooled(&serial_hist)));
    if serial_ops.len() > 1 {
        for op in &serial_ops {
            println!(
                "  serial p50 of {} alone {}",
                op.name,
                op.summary("one operation")
            );
        }
    }
    println!("{}", loaded_p90.describe(&pooled(&loaded_hist)));
    println!("{}", cpu.describe("process user+sys CPU over OK responses"));
    println!("e2e peak_rss_mb {rss:.2} MB  VmHWM at the end of the timed phases");
    println!(
        "e2e fail_frac {fail_frac} = {failed} failed / {} attempted ({wrong} wrong bodies found by the deferred check)",
        all.sent
    );
    println!("{}", counters.describe());
    if let Some(why) = &all.first_failure {
        println!("first failure: {why}");
    }
    let ledgers = ledgers.and_then(|()| client_ledger(&all));
    report_ledgers(&ledgers);
    let correct = failed == 0 && ledgers.is_ok();
    print_result(
        correct,
        all.sent,
        failed,
        &[
            rps.metric(),
            serial_p50.metric(),
            loaded_p90.metric(),
            cpu.metric(),
            Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: rss,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&setups),
            },
        ],
    );
    Ok(correct)
}
