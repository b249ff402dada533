//! The three course workloads: which requests each sends, and the
//! reference body every response is checked against.
//!
//! A request is a pure function of `(seed, key)`, so the same seed
//! gives the same inputs and a response can be re-checked after the
//! timed phases from its key alone.

use serve::server::Request;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Life` 8×8, 1 step, over 16 primed keys: every request is a hit.
    HitPath,
    /// `Life` 32×32×16, `MemTrace` 4096 and `Grade`, each key unique.
    ComputeMix,
    /// `MemTrace random` 256 over 1024 uniform keys, twice the fleet's cache.
    CacheChurn,
}

pub const NAMES: [&str; 3] = ["hit_path", "compute_mix", "cache_churn"];

const HIT_KEYS: u64 = 16;
const CHURN_KEYS: u64 = 1024;
const PATTERNS: [&str; 5] = ["seq", "stride", "random", "ws", "rmw"];

/// The Lab 4 sum-array solution that earns full marks; each `Grade`
/// request prefixes a comment naming its key, so every one is a
/// distinct cache key with the same grading work.
const SUM_ARRAY: &str = "main:
    movl $0, %eax
    movl $0, %edi
    cmpl $0, %ecx
    je done
loop:
    addl (%esi,%edi,4), %eax
    addl $1, %edi
    cmpl %ecx, %edi
    jne loop
done:
    hlt
";

/// One workload under one seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
}

impl Workload {
    pub fn parse(name: &str, seed: u64) -> Option<Workload> {
        let kind = match name {
            "hit_path" => Kind::HitPath,
            "compute_mix" => Kind::ComputeMix,
            "cache_churn" => Kind::CacheChurn,
            _ => return None,
        };
        Some(Workload { kind, seed })
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::HitPath => NAMES[0],
            Kind::ComputeMix => NAMES[1],
            Kind::CacheChurn => NAMES[2],
        }
    }

    /// Size of the key space clients draw from; `None` when every
    /// request takes a fresh key.
    pub fn key_space(&self) -> Option<u64> {
        match self.kind {
            Kind::HitPath => Some(HIT_KEYS),
            Kind::ComputeMix => None,
            Kind::CacheChurn => Some(CHURN_KEYS),
        }
    }

    /// Names of the workload's operations, indexed by `op`.
    pub fn op_names(&self) -> &'static [&'static str] {
        match self.kind {
            Kind::ComputeMix => &["life", "memtrace", "grade"],
            Kind::HitPath => &["life"],
            Kind::CacheChurn => &["memtrace"],
        }
    }

    /// Which of the workload's operations `key` sends: an index into
    /// `op_names`.
    pub fn op(&self, key: u64) -> u8 {
        match self.kind {
            Kind::ComputeMix => (key % 3) as u8,
            Kind::HitPath | Kind::CacheChurn => 0,
        }
    }

    /// The request for `key`.
    pub fn request(&self, key: u64) -> Request {
        let h = mix(self.seed ^ mix(key));
        match self.kind {
            Kind::HitPath => Request::Life {
                w: 8,
                h: 8,
                steps: 1,
                seed: h,
            },
            Kind::CacheChurn => Request::MemTrace {
                pattern: "random".to_string(),
                accesses: 256,
                seed: h,
            },
            // Round robin over the three operations, so every phase
            // sends them in equal shares.
            Kind::ComputeMix => match self.op(key) {
                0 => Request::Life {
                    w: 32,
                    h: 32,
                    steps: 16,
                    seed: h,
                },
                1 => Request::MemTrace {
                    pattern: PATTERNS[(key / 3 % 5) as usize].to_string(),
                    accesses: 4096,
                    seed: h,
                },
                _ => Request::Grade {
                    submission: format!("# submission {:016x}/{key}\n{SUM_ARRAY}", self.seed),
                },
            },
        }
    }

    /// One request of each operation, for the direct service probes:
    /// `[life, memtrace, grade]` with this workload's parameters. An
    /// operation the workload does not send is probed with
    /// `compute_mix`'s parameters.
    pub fn service_probes(&self, n: u64) -> [Request; 3] {
        let mix = Workload {
            kind: Kind::ComputeMix,
            seed: self.seed,
        };
        let own = |op: u64| match (self.kind, op) {
            (Kind::HitPath, 0) | (Kind::CacheChurn, 1) => {
                self.request(n % self.key_space().unwrap_or(1))
            }
            _ => mix.request(3 * n + op),
        };
        [own(0), own(1), own(2)]
    }
}

/// splitmix64 finaliser: the benchmark's only source of randomness.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded stream of keys.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0) % n
    }
}

/// 32-bit FNV-1a over a body, so a deferred check keeps 8 bytes per
/// response and the benchmark's memory barely grows with throughput.
pub fn body_hash(body: &str) -> u32 {
    body.bytes().fold(0x811c_9dc5, |acc, b| {
        (acc ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// A response whose body is checked after the timed phases.
pub type Deferred = (u32, u32);

/// Records `body` for key `key` to be checked later.
pub fn defer(key: u64, body: &str) -> Deferred {
    let key = u32::try_from(key).expect("fresh keys stay below 2^32");
    (key, body_hash(body))
}

/// The body the server must answer `req` with, computed by calling the
/// course libraries directly.
pub fn reference(req: &Request) -> String {
    match req {
        Request::Life { w, h, steps, seed } => {
            let grid = life::grid::Grid::random(
                *h as usize,
                *w as usize,
                0.35,
                *seed,
                life::grid::Boundary::Toroidal,
            )
            .expect("benchmark Life sizes are in range");
            let (last, rounds) = life::serial::run(grid, *steps as usize);
            let (births, deaths) = rounds
                .iter()
                .fold((0u64, 0u64), |(b, d), r| (b + r.births, d + r.deaths));
            let checksum = last.cells().iter().enumerate().fold(
                0xcbf2_9ce4_8422_2325u64,
                |acc, (i, &alive)| {
                    (acc ^ ((i as u64) << 1 | u64::from(alive))).wrapping_mul(0x100_0000_01b3)
                },
            );
            format!(
                "life {w}x{h} seed {seed}: {steps} steps, population {}, \
                 births {births}, deaths {deaths}, checksum {checksum:016x}",
                last.population()
            )
        }
        Request::MemTrace {
            pattern,
            accesses,
            seed,
        } => {
            use memsim::patterns as p;
            let base = (seed & 0xFFFF) * 64;
            let n = *accesses as usize;
            let trace = match pattern.as_str() {
                "seq" => p::strided_trace(base, n, 4),
                "stride" => p::strided_trace(base, n, 64),
                "random" => p::random_trace(base, 1 << 20, n, *seed),
                "ws" => p::working_set_trace(base, 8192, 64, (n / 128).max(1)),
                "rmw" => p::rmw_trace(base, n.div_ceil(2), 64),
                other => panic!("benchmark sends no pattern {other:?}"),
            };
            let config = memsim::cache::CacheConfig::set_associative(64, 2, 64);
            let mut cache = memsim::cache::Cache::new(config).expect("valid static config");
            cache.run_trace(&trace);
            let stats = cache.stats();
            format!(
                "memtrace {pattern} seed {seed}: {} accesses, {} hits, {} misses, \
                 hit rate {:.3}, amat {:.2}, cycles {}",
                trace.len(),
                stats.hits,
                stats.misses,
                stats.hit_rate(),
                cache.amat(),
                cache.total_cycles()
            )
        }
        Request::Grade { submission } => {
            cs31::autograde::grade(submission, &cs31::autograde::sum_array_rubric(), 200_000)
                .render()
        }
        other => panic!("benchmark sends no {other:?}"),
    }
}
