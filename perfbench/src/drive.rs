//! The closed-loop client: one thread per connection keeps `window`
//! requests outstanding, times each round trip, and checks every OK
//! body against the workload's reference.

use crate::trace::Spans;
use crate::workload::{defer, Deferred, Rng, Workload};
use net::wire::{decode_payload, encode_request, read_frame, Frame, RequestFrame, RespStatus};
use serve::pool::JobClass;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a client waits for an outstanding response before it
/// counts the request unanswered.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// A client connection to the router or to one backend.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }
}

/// Where a client takes its next key from.
pub enum Keys<'a> {
    /// Uniform draws from `0..n`.
    Uniform(Rng, u64),
    /// Uniform draws from a list.
    Among(Rng, &'a [u64]),
    /// A fresh key per request from a counter shared by all clients.
    Fresh(&'a AtomicU64),
    /// Each key of the list once, in order (priming).
    Each(std::slice::Iter<'a, u64>),
}

impl Keys<'_> {
    pub fn next(&mut self) -> Option<u64> {
        match self {
            Keys::Uniform(rng, n) => Some(rng.below(*n)),
            Keys::Among(rng, list) => Some(list[rng.below(list.len() as u64) as usize]),
            Keys::Fresh(counter) => Some(counter.fetch_add(1, Ordering::Relaxed)),
            Keys::Each(iter) => iter.next().copied(),
        }
    }
}

/// What the responses should say.
#[derive(Clone, Copy)]
pub struct Check<'a> {
    pub workload: &'a Workload,
    /// Reference bodies by key, for workloads with a key space.
    /// Without them, bodies are hashed and checked after the run.
    pub refs: Option<&'a [String]>,
}

/// Round trips in ns, one list per operation of the workload
/// (`Workload::op`).
#[derive(Default)]
pub struct ByOp(Vec<Vec<u64>>);

impl ByOp {
    fn list(&mut self, op: usize) -> &mut Vec<u64> {
        if self.0.len() <= op {
            self.0.resize_with(op + 1, Vec::new);
        }
        &mut self.0[op]
    }

    pub fn push(&mut self, op: u8, ns: u64) {
        self.list(usize::from(op)).push(ns);
    }

    pub fn absorb(&mut self, other: ByOp) {
        for (op, list) in other.0.into_iter().enumerate() {
            self.list(op).extend(list);
        }
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// Each operation's median round trip in µs, indexed by operation;
    /// 0 for an operation without samples.
    pub fn op_p50s_us(&mut self) -> Vec<f64> {
        self.0
            .iter_mut()
            .map(|list| {
                list.sort_unstable();
                crate::pct(list, 50.0) as f64 / 1e3
            })
            .collect()
    }

    /// The mean over operations of each one's median round trip, in
    /// µs. With one operation this is its median; with several, each
    /// counts alike, whatever its share of the samples.
    pub fn p50_us(&mut self) -> f64 {
        let p50s: Vec<f64> = self.op_p50s_us().into_iter().filter(|&p| p > 0.0).collect();
        p50s.iter().sum::<f64>() / p50s.len().max(1) as f64
    }

    /// Every sample, sorted.
    pub fn pooled(&self) -> Vec<u64> {
        crate::sorted(self.0.concat())
    }
}

/// The outcome of one client's requests.
#[derive(Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Non-OK statuses, wrong bodies and unanswered requests.
    pub failed: u64,
    /// Requests sent that never got a response.
    pub unanswered: u64,
    /// Round trips of OK responses, by operation.
    pub lat: ByOp,
    /// `(key, body hash)` of OK bodies still to be checked.
    pub deferred: Vec<Deferred>,
    /// `(key, backend)` of every OK response, when asked for.
    pub owners: Vec<(u64, u32)>,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.unanswered += other.unanswered;
        self.lat.absorb(other.lat);
        self.deferred.extend(other.deferred);
        self.owners.extend(other.owners);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

/// Options for one client.
pub struct Drive<'a> {
    pub window: usize,
    /// Stop sending at this instant (outstanding requests still drain).
    pub until: Option<Instant>,
    pub check: Check<'a>,
    pub record_owners: bool,
}

struct Outstanding {
    id: u64,
    key: u64,
    /// When encoding began: the start of the request's root span.
    began: Instant,
    sent_at: Instant,
    root: u64,
}

/// Runs one connection in closed loop until the key source ends or the
/// deadline passes, then drains every outstanding request. With
/// `spans`, each request records a `client.request` root span with
/// `wire.encode`, `net.roundtrip` and `wire.decode` children.
pub fn run(conn: &mut Conn, mut keys: Keys, opts: &Drive, mut spans: Option<&mut Spans>) -> Tally {
    let mut tally = Tally::default();
    let mut pending: Vec<Outstanding> = Vec::with_capacity(opts.window);
    let mut exhausted = false;
    loop {
        while !exhausted && pending.len() < opts.window {
            let key = match keys.next() {
                Some(key) if opts.until.is_none_or(|t| Instant::now() < t) => key,
                _ => {
                    exhausted = true;
                    break;
                }
            };
            let id = conn.next_id;
            conn.next_id += 1;
            let began = Instant::now();
            let bytes = encode_request(&RequestFrame {
                id,
                class: JobClass::Batch,
                priority: 128,
                deadline_budget_ms: None,
                req: opts.check.workload.request(key),
            });
            let sent_at = Instant::now();
            let root = spans.as_deref_mut().map_or(0, |s| {
                let root = s.next_id();
                s.record("wire.encode", root, id, began, sent_at);
                root
            });
            tally.sent += 1;
            if let Err(e) = conn.writer.write_all(&bytes) {
                tally.fail(format!("write failed: {e}"));
                tally.unanswered += 1;
                exhausted = true;
                break;
            }
            pending.push(Outstanding {
                id,
                key,
                began,
                sent_at,
                root,
            });
        }
        if pending.is_empty() {
            break;
        }
        let payload = match conn
            .writer
            .flush()
            .and_then(|()| read_frame(&mut conn.reader))
        {
            Ok(Some(p)) => p,
            Ok(None) => {
                unanswered(&mut tally, &mut pending, "connection closed".into());
                break;
            }
            Err(e) => {
                unanswered(&mut tally, &mut pending, format!("i/o failed: {e}"));
                break;
            }
        };
        let received = Instant::now();
        let resp = match decode_payload(&payload) {
            Ok(Frame::Response(r)) => r,
            other => {
                unanswered(
                    &mut tally,
                    &mut pending,
                    format!("undecodable reply: {other:?}"),
                );
                break;
            }
        };
        let decoded = Instant::now();
        let Some(at) = pending.iter().position(|o| o.id == resp.id) else {
            tally.fail(format!("reply to unknown id {}", resp.id));
            continue;
        };
        let o = pending.swap_remove(at);
        if let Some(s) = spans.as_deref_mut() {
            s.record("net.roundtrip", o.root, o.id, o.sent_at, received);
            s.record("wire.decode", o.root, o.id, received, decoded);
            s.record_as(o.root, "client.request", 0, o.id, o.began, decoded);
        }
        match resp.status {
            RespStatus::Ok | RespStatus::OkCached => {
                let good = match opts.check.refs {
                    Some(refs) => refs[o.key as usize] == resp.body,
                    None => {
                        tally.deferred.push(defer(o.key, &resp.body));
                        true
                    }
                };
                if good {
                    tally.ok += 1;
                    let ns = (received - o.sent_at).as_nanos() as u64;
                    tally.lat.push(opts.check.workload.op(o.key), ns);
                    if opts.record_owners {
                        tally.owners.push((o.key, resp.backend));
                    }
                } else {
                    tally.fail(format!("key {}: wrong body {:?}", o.key, resp.body));
                }
            }
            status => tally.fail(format!("key {}: {status:?} {}", o.key, resp.body)),
        }
    }
    tally
}

fn unanswered(tally: &mut Tally, pending: &mut Vec<Outstanding>, why: String) {
    let n = pending.len() as u64;
    pending.clear();
    tally.failed += n;
    tally.unanswered += n;
    tally
        .first_failure
        .get_or_insert(format!("{n} unanswered: {why}"));
}
