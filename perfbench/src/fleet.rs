//! The fleet under test: one `router::Router` in front of two
//! `net::NetServer` backends on loopback, all in this process, with
//! every config field at its default except the backend id and the
//! worker count.

use net::server::{NetConfig, NetServer};
use router::server::{Router, RouterConfig};
use serve::server::{CourseServer, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub const BACKENDS: usize = 2;

/// How long a ledger may take to settle once the clients are idle.
const SETTLE: Duration = Duration::from_secs(2);

pub struct Fleet {
    pub backends: Vec<NetServer>,
    pub router: Router,
}

/// The program's counters, summed over the fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub forwarded: u64,
    pub relayed: u64,
    pub rerouted: u64,
    pub synthesized_shed: u64,
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub rejected: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub net_requests: u64,
    pub net_responses: u64,
}

impl Counters {
    pub fn describe(&self) -> String {
        format!(
            "program router forwarded {} relayed {} rerouted {} synthesized_shed {}; \
             backends admitted {} completed {} shed {} rejected {}; \
             net requests {} responses {}; cache hits {} misses {} evictions {}",
            self.forwarded,
            self.relayed,
            self.rerouted,
            self.synthesized_shed,
            self.admitted,
            self.completed,
            self.shed,
            self.rejected,
            self.net_requests,
            self.net_responses,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions
        )
    }
}

impl Fleet {
    pub fn start(workers: usize) -> std::io::Result<Fleet> {
        let mut backends = Vec::with_capacity(BACKENDS);
        for id in 0..BACKENDS {
            let course = CourseServer::new(ServerConfig {
                workers,
                ..ServerConfig::default()
            });
            let config = NetConfig {
                backend_id: id as u32,
                ..NetConfig::default()
            };
            backends.push(NetServer::bind("127.0.0.1:0", course, config)?);
        }
        let addrs: Vec<SocketAddr> = backends.iter().map(NetServer::local_addr).collect();
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())?;
        Ok(Fleet { backends, router })
    }

    pub fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    /// Waits until the router has every backend in rotation and every
    /// backend answers a stats request.
    pub fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + SETTLE;
        for (id, backend) in self.backends.iter().enumerate() {
            while !self.router.backend_is_up(id) {
                if Instant::now() > deadline {
                    return Err(format!("backend {id} never came up at the router"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            net::loadgen::fetch_stats(backend.local_addr())
                .map_err(|e| format!("backend {id} does not answer: {e}"))?;
        }
        Ok(())
    }

    pub fn counters(&self) -> Counters {
        let t = self.router.totals();
        let mut c = Counters {
            forwarded: t.forwarded,
            relayed: t.relayed,
            rerouted: t.rerouted,
            synthesized_shed: t.synthesized_shed,
            ..Counters::default()
        };
        for b in &self.backends {
            let s = b.course().stats();
            c.admitted += s.accepted;
            c.completed += s.completed;
            c.shed += s.shed;
            c.rejected += s.rejected;
            c.cache_hits += s.cache.hits;
            c.cache_misses += s.cache.misses;
            c.cache_evictions += s.cache.evictions;
            let n = b.net_stats();
            c.net_requests += n.requests;
            c.net_responses += n.responses;
        }
        c
    }

    /// Waits for the ledgers to balance once the clients are idle:
    /// the router's `forwarded == relayed + synthesized_shed` and every
    /// backend's `admitted == completed + shed`.
    pub fn check_ledgers(&self) -> Result<(), String> {
        let deadline = Instant::now() + SETTLE;
        loop {
            let t = self.router.totals();
            let router_ok = t.forwarded == t.relayed + t.synthesized_shed;
            let stats: Vec<_> = self.backends.iter().map(|b| b.course().stats()).collect();
            let backends_ok = stats.iter().all(|s| s.accepted == s.completed + s.shed);
            if router_ok && backends_ok {
                return Ok(());
            }
            if Instant::now() > deadline {
                let per_backend: Vec<String> = stats
                    .iter()
                    .map(|s| {
                        format!(
                            "admitted {} completed {} shed {}",
                            s.accepted, s.completed, s.shed
                        )
                    })
                    .collect();
                return Err(format!(
                    "ledgers unbalanced: router forwarded {} relayed {} shed {}; backends {:?}",
                    t.forwarded, t.relayed, t.synthesized_shed, per_backend
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops the router, then every backend; each call joins its threads.
    pub fn shutdown(self) {
        self.router.shutdown();
        for b in &self.backends {
            b.shutdown();
        }
    }
}

/// This process's user+system CPU time so far, from `/proc/self/stat`
/// (clock ticks of 1/100 s, Linux's `USER_HZ`).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
