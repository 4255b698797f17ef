//! `perfbench` — one closed-loop client syncing against an in-process
//! `reconciled` daemon over loopback sockets.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns a [`server::Daemon`] seeded with 100,000 32-byte items in 8
//! shards, warms it up, then for `S` seconds runs syncs one after another
//! through the public client functions `statesync::sync_sharded_tcp` and
//! `statesync::sync_sharded_udp`, checking every recovered difference
//! against the generated one. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones (see `DESIGN.md`). The last line of
//! standard output is one JSON object.

mod sys;
mod trace;
mod workload;

use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use obs::HistogramSnapshot;
use reconcile_core::backends::RibltBackend;
use reconcile_core::handshake::{client_handshake, Hello, SHARDS_ANY};
use reconcile_core::{SetDifference, ShardPartitioner};
use riblt::{Decoder, Encoder, DEFAULT_ALPHA};
use riblt_hash::{splitmix64, SipKey};
use server::{item_to_hex, AdminClient, Daemon, DaemonConfig, DaemonMetrics};
use statesync::{
    sync_sharded_tcp, sync_sharded_udp, DatagramConduit, TcpSyncConfig, UdpSyncConfig,
};

use trace::{DropConduit, Span, SyncBreakdown, SyncRecorder, TracedConduit, TracedStream};
use workload::{Item, Transport, Workload, ITEM_LEN, SHARDS};

const USAGE: &str = "Usage: perfbench --workload tcp_stale_mix|tcp_churn|udp_bulk_churn|udp_lossy \
                     --seed N --seconds S --trace 0|1";

/// Daemon spawns timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Socket read and write timeout, as `reconcile-client` sets by default.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Wall-clock bound on one datagram sync: far above any live sync's time,
/// so only a wedged sync reaches it.
const UDP_DEADLINE: Duration = Duration::from_secs(3);
/// Both peers use the default key, as the shipped binaries do.
fn key() -> SipKey {
    SipKey::default()
}

/// Sync indices at and above this are warm-up syncs.
const WARMUP_BASE: u64 = 1 << 30;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Program counts one successful sync reports about itself.
#[derive(Debug, Default, Clone, Copy)]
struct SyncCounts {
    /// Bytes both ways: framing, headers and retransmits included.
    wire_bytes: u64,
    units: usize,
    rounds: usize,
    decode_s: f64,
    udp_retransmits: usize,
    udp_stale_batches: usize,
    udp_datagrams_sent: usize,
    udp_datagrams_received: usize,
}

/// One attempted sync of the measured window.
#[derive(Debug)]
struct SyncRecord {
    d: usize,
    traced: bool,
    ok: bool,
    wall_s: f64,
    /// Churn writes plus the sync.
    busy_s: f64,
    cpu_s: f64,
    counts: SyncCounts,
    drops: u64,
    admin_write_s: f64,
    admin_writes: usize,
    breakdown: Option<SyncBreakdown>,
    raw_decode_ms: Option<f64>,
}

type SyncResult = Result<(Vec<SetDifference<Item>>, SyncCounts), String>;

struct Bench {
    workload: &'static Workload,
    seed: u64,
    server: Vec<Item>,
    daemon: Daemon<Item>,
    admin: Option<AdminClient>,
    partitioner: ShardPartitioner,
    epoch: Instant,
    spans: Vec<Span>,
    /// Wrong differences, unexpected churn-write replies and out-of-band
    /// decodes that disagree with the generated difference.
    wrong_outputs: usize,
}

fn daemon_config(workload: &Workload) -> DaemonConfig {
    DaemonConfig {
        shards: SHARDS,
        symbol_len: ITEM_LEN,
        key: key(),
        udp_listen: (workload.transport == Transport::Udp).then(|| "127.0.0.1:0".to_string()),
        ..DaemonConfig::default()
    }
}

/// Connects and completes a handshake: the daemon is accepting peers.
fn first_accept(addr: SocketAddr) -> Result<(), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| conn.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    client_handshake(&mut conn, &Hello::new(key(), SHARDS_ANY, ITEM_LEN))
        .map(|_| ())
        .map_err(|e| format!("first handshake: {e}"))
}

fn backend(_shard: u16) -> RibltBackend<Item> {
    RibltBackend::with_key_and_alpha(ITEM_LEN, 32, key(), DEFAULT_ALPHA)
}

/// Dials like `reconcile-client`: plain connect, read and write timeouts, no
/// socket options of its own, default `TcpSyncConfig`.
fn tcp_sync(addr: SocketAddr, items: &[Item], rec: Option<&mut SyncRecorder>) -> SyncResult {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| conn.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    let config = TcpSyncConfig {
        key: key(),
        symbol_len: ITEM_LEN,
        ..TcpSyncConfig::default()
    };
    let result = match rec {
        None => sync_sharded_tcp(&mut conn, items, backend, &config),
        Some(rec) => sync_sharded_tcp(
            &mut TracedStream {
                inner: &mut conn,
                rec,
            },
            items,
            backend,
            &config,
        ),
    };
    let (diffs, out) = result.map_err(|e| e.to_string())?;
    let counts = SyncCounts {
        wire_bytes: (out.bytes_sent + out.bytes_received) as u64,
        units: out.units,
        rounds: out.rounds,
        decode_s: out.decode_wall_s,
        ..SyncCounts::default()
    };
    Ok((diffs, counts))
}

fn udp_sync_over<C: DatagramConduit>(
    conduit: &mut C,
    items: &[Item],
    nonce: u64,
    rec: Option<&mut SyncRecorder>,
) -> SyncResult {
    let config = UdpSyncConfig {
        key: key(),
        symbol_len: ITEM_LEN,
        deadline: UDP_DEADLINE,
        nonce,
        ..UdpSyncConfig::default()
    };
    let result = match rec {
        None => sync_sharded_udp(conduit, items, backend, &config),
        Some(rec) => sync_sharded_udp(
            &mut TracedConduit {
                inner: conduit,
                rec,
            },
            items,
            backend,
            &config,
        ),
    };
    let (diffs, out) = result.map_err(|e| e.to_string())?;
    let counts = SyncCounts {
        wire_bytes: (out.bytes_sent + out.bytes_received) as u64,
        units: out.units,
        udp_retransmits: out.retransmits,
        udp_stale_batches: out.stale_batches,
        udp_datagrams_sent: out.datagrams_sent,
        udp_datagrams_received: out.datagrams_received,
        ..SyncCounts::default()
    };
    Ok((diffs, counts))
}

/// A fresh connected socket per sync; on `udp_lossy` it is wrapped in the
/// seeded [`DropConduit`]. Returns the result and the datagrams dropped.
fn udp_sync(
    addr: SocketAddr,
    items: &[Item],
    loss: f64,
    seed: u64,
    rec: Option<&mut SyncRecorder>,
) -> (SyncResult, u64) {
    let socket = match UdpSocket::bind("127.0.0.1:0").and_then(|s| s.connect(addr).map(|()| s)) {
        Ok(socket) => socket,
        Err(e) => return (Err(format!("udp socket: {e}")), 0),
    };
    let nonce = splitmix64(seed) | 1;
    if loss == 0.0 {
        let mut socket = socket;
        return (udp_sync_over(&mut socket, items, nonce, rec), 0);
    }
    let mut lossy = DropConduit::new(socket, loss, seed);
    let result = udp_sync_over(&mut lossy, items, nonce, rec).map(|(diffs, mut counts)| {
        // Inbound datagrams dropped here did cross the wire.
        counts.wire_bytes += lossy.dropped_in_bytes;
        (diffs, counts)
    });
    (result, lossy.drops)
}

fn sorted_union(
    diffs: &[SetDifference<Item>],
    side: impl Fn(&SetDifference<Item>) -> &Vec<Item>,
) -> Vec<Item> {
    let mut all: Vec<Item> = diffs.iter().flat_map(|d| side(d).iter().copied()).collect();
    all.sort_unstable();
    all
}

/// The same difference peeled by a bare `riblt::Decoder`, out of band:
/// milliseconds spent inside the decoder until it reports decoded.
fn raw_decode_ms(input: &workload::SyncInput) -> Result<f64, String> {
    let mut encoder = Encoder::<Item>::with_key_and_alpha(key(), DEFAULT_ALPHA);
    for item in &input.remote_only {
        encoder.add_symbol(*item).map_err(|e| e.to_string())?;
    }
    let mut decoder = Decoder::<Item>::with_key_and_alpha(key(), DEFAULT_ALPHA);
    let d = input.remote_only.len() + input.local_only.len();
    let mut busy = Duration::ZERO;
    let t = Instant::now();
    for item in &input.local_only {
        decoder.add_symbol(*item).map_err(|e| e.to_string())?;
    }
    busy += t.elapsed();
    while !decoder.is_decoded() {
        if decoder.coded_symbols_received() > 64 * d + 1_024 {
            return Err("out-of-band decode did not finish".into());
        }
        let batch = encoder.produce_coded_symbols(64);
        let t = Instant::now();
        decoder.add_coded_symbols(batch);
        busy += t.elapsed();
    }
    if decoder.recovered_count() != d {
        return Err(format!(
            "out-of-band decode recovered {} of {d} differences",
            decoder.recovered_count()
        ));
    }
    Ok(busy.as_secs_f64() * 1e3)
}

impl Bench {
    /// Writes the churn pairs of sync `index` through the admin socket.
    /// Returns the seconds spent and whether every reply was the expected
    /// one.
    fn churn(&mut self, index: u64) -> (f64, usize, bool) {
        let Some(admin) = self.admin.as_mut() else {
            return (0.0, 0, true);
        };
        let partitioner = &self.partitioner;
        let items = workload::churn_items(self.seed, index, self.workload.churn_pairs, |it| {
            partitioner.shard_of(it)
        });
        let t = Instant::now();
        let mut good = true;
        for item in &items {
            let hex = item_to_hex(item);
            for (command, expected) in [("ADD", "OK added=1"), ("REMOVE", "OK removed=1")] {
                match admin.send(&format!("{command} {hex}")) {
                    Ok(reply) if reply == expected => {}
                    Ok(reply) => {
                        eprintln!("perfbench: {command} answered {reply:?}");
                        good = false;
                    }
                    Err(e) => {
                        eprintln!("perfbench: {command} failed: {e}");
                        good = false;
                    }
                }
            }
        }
        (t.elapsed().as_secs_f64(), 2 * items.len(), good)
    }

    fn run_sync(&mut self, index: u64, traced: bool) -> SyncRecord {
        let d = self.workload.staleness_of(index);
        let input = workload::sync_input(&self.server, self.seed, index, d);
        let sync_seed = splitmix64(self.seed ^ splitmix64(index));

        let cpu0 = sys::process_cpu_s();
        let t0 = Instant::now();
        let (admin_write_s, admin_writes, churn_ok) = self.churn(index);
        let mut rec = traced.then(|| SyncRecorder::start(self.epoch, index));
        let t_sync = Instant::now();
        let (result, drops) = match self.workload.transport {
            Transport::Tcp => (
                tcp_sync(self.daemon.data_addr(), &input.client, rec.as_mut()),
                0,
            ),
            Transport::Udp => udp_sync(
                self.daemon
                    .udp_addr()
                    .expect("UDP workloads enable the datagram listener"),
                &input.client,
                self.workload.loss,
                sync_seed,
                rec.as_mut(),
            ),
        };
        let wall_s = t_sync.elapsed().as_secs_f64();
        let busy_s = t0.elapsed().as_secs_f64();
        let cpu_s = sys::process_cpu_s() - cpu0;
        let breakdown = rec.map(|rec| rec.finish(&mut self.spans));

        let mut record = SyncRecord {
            d,
            traced,
            ok: false,
            wall_s,
            busy_s,
            cpu_s,
            counts: SyncCounts::default(),
            drops,
            admin_write_s,
            admin_writes,
            breakdown,
            raw_decode_ms: None,
        };
        if !churn_ok {
            self.wrong_outputs += 1;
        }
        match result {
            Err(e) => eprintln!("perfbench: sync {index} (d={d}) failed: {e}"),
            Ok((diffs, counts)) => {
                let remote = sorted_union(&diffs, |d| &d.remote_only);
                let local = sorted_union(&diffs, |d| &d.local_only);
                if remote != input.remote_only || local != input.local_only {
                    eprintln!(
                        "perfbench: sync {index} (d={d}) recovered a wrong difference: \
                         {} remote-only and {} local-only, expected {} and {}",
                        remote.len(),
                        local.len(),
                        input.remote_only.len(),
                        input.local_only.len()
                    );
                    self.wrong_outputs += 1;
                } else {
                    record.ok = churn_ok;
                    record.counts = counts;
                }
            }
        }
        if record.ok && traced {
            match raw_decode_ms(&input) {
                Ok(ms) => record.raw_decode_ms = Some(ms),
                Err(e) => {
                    eprintln!("perfbench: sync {index}: {e}");
                    self.wrong_outputs += 1;
                }
            }
        }
        record
    }
}

/// Daemon counters read at the edges of the measured window.
struct ServerSnapshot {
    serve_cpu_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    connection_errors: u64,
    handshake_failures: u64,
    backpressure_pauses: u64,
    serve_batch: HistogramSnapshot,
    handshake: HistogramSnapshot,
}

impl ServerSnapshot {
    fn take(m: &DaemonMetrics) -> ServerSnapshot {
        ServerSnapshot {
            serve_cpu_ns: m.serve_cpu_nanos.get(),
            cache_hits: m.wire_cache_hits.get(),
            cache_misses: m.wire_cache_misses.get(),
            connection_errors: m.connection_errors.get(),
            handshake_failures: m.handshake_failures.get(),
            backpressure_pauses: m.backpressure_pauses.get(),
            serve_batch: m.serve_batch_seconds.snapshot(),
            handshake: m.handshake_seconds.snapshot(),
        }
    }
}

/// The `q`-quantile of the observations recorded between two snapshots of
/// one histogram, interpolated inside the bucket the way
/// `HistogramSnapshot::quantile` does.
fn window_quantile(before: &HistogramSnapshot, after: &HistogramSnapshot, q: f64) -> f64 {
    let delta: Vec<u64> = after
        .buckets()
        .iter()
        .zip(before.buckets())
        .map(|(a, b)| a - b)
        .collect();
    let count: u64 = delta.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (idx, &n) in delta.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if rank <= cumulative + n {
            let upper = obs::bucket_upper_bound(idx) as f64;
            let lower = if idx == 0 {
                0.0
            } else {
                obs::bucket_upper_bound(idx - 1) as f64
            };
            let estimate = lower + (upper - lower) * (rank - cumulative) as f64 / n as f64;
            return estimate.min(after.max as f64);
        }
        cumulative += n;
    }
    after.max as f64
}

/// Linear-interpolated quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

fn mean(records: &[&SyncRecord], f: impl Fn(&SyncRecord) -> f64) -> f64 {
    records.iter().map(|r| f(r)).sum::<f64>() / records.len() as f64
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(
    records: &[SyncRecord],
    setup: &[f64],
    rss_setup_mb: f64,
) -> Result<Vec<Metric>, String> {
    let ok: Vec<&SyncRecord> = records.iter().filter(|r| r.ok).collect();
    if ok.is_empty() {
        return Err("no sync succeeded in the measured window".into());
    }
    let mut walls: Vec<f64> = ok.iter().map(|r| r.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    let busy: f64 = records.iter().map(|r| r.busy_s).sum();
    let wire: u64 = ok.iter().map(|r| r.counts.wire_bytes).sum();
    let diffs: usize = ok.iter().map(|r| r.d).sum();
    let cpu: f64 = records.iter().map(|r| r.cpu_s).sum();
    println!(
        "perfbench: latency quantiles over {} successful of {} attempted syncs (slowest {:.3} s)",
        ok.len(),
        records.len(),
        walls[walls.len() - 1]
    );
    Ok(vec![
        metric("sync_p50_s", quantile(&walls, 0.5), "s"),
        metric("sync_p90_s", quantile(&walls, 0.9), "s"),
        metric("syncs_per_s", ok.len() as f64 / busy, "1/s"),
        metric("wire_bytes_per_diff", wire as f64 / diffs as f64, "B"),
        metric("cpu_ms_per_sync", cpu * 1e3 / records.len() as f64, "ms"),
        metric(
            "sync_ok_ratio",
            ok.len() as f64 / records.len() as f64,
            "ratio",
        ),
        metric("setup_s", median(setup), "s"),
        metric("rss_setup_mb", rss_setup_mb, "MiB"),
    ])
}

fn per_layer(
    workload: &Workload,
    records: &[SyncRecord],
    before: &ServerSnapshot,
    after: &ServerSnapshot,
    rss_growth_mb: f64,
) -> Result<Vec<Metric>, String> {
    let traced: Vec<&SyncRecord> = records.iter().filter(|r| r.ok && r.traced).collect();
    let plain: Vec<f64> = records
        .iter()
        .filter(|r| r.ok && !r.traced)
        .map(|r| r.wall_s)
        .collect();
    if traced.is_empty() || plain.is_empty() {
        return Err("the traced run needs successful traced and untraced syncs".into());
    }
    let b = |r: &SyncRecord| r.breakdown.expect("traced syncs carry a breakdown");
    let tcp = workload.transport == Transport::Tcp;
    let decode_ms = |r: &SyncRecord| {
        if tcp {
            r.counts.decode_s * 1e3
        } else {
            b(r).compute_ms
        }
    };
    let syncs = records.len() as f64;
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    let admin_writes: usize = records.iter().map(|r| r.admin_writes).sum();
    let admin_s: f64 = records.iter().map(|r| r.admin_write_s).sum();
    let traced_units: usize = traced.iter().map(|r| r.counts.units).sum();
    let traced_diffs: usize = traced.iter().map(|r| r.d).sum();
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    Ok(vec![
        metric(
            "statesync.sync_wall_ms",
            mean(&traced, |r| b(r).wall_ms),
            "ms",
        ),
        metric(
            "statesync.handshake_ms",
            mean(&traced, |r| b(r).handshake_ms),
            "ms",
        ),
        metric(
            "statesync.prepare_ms",
            mean(&traced, |r| b(r).prepare_ms),
            "ms",
        ),
        metric(
            "statesync.read_wait_ms",
            mean(&traced, |r| b(r).read_wait_ms),
            "ms",
        ),
        metric("statesync.write_ms", mean(&traced, |r| b(r).write_ms), "ms"),
        metric(
            "statesync.write_calls",
            mean(&traced, |r| b(r).write_calls as f64),
            "count",
        ),
        metric("statesync.decode_ms", mean(&traced, decode_ms), "ms"),
        metric(
            "statesync.unaccounted_ms",
            mean(&traced, |r| {
                let x = b(r);
                x.wall_ms
                    - x.handshake_ms
                    - x.prepare_ms
                    - x.read_wait_ms
                    - x.write_ms
                    - decode_ms(r)
            }),
            "ms",
        ),
        metric(
            "statesync.rounds",
            mean(&traced, |r| r.counts.rounds as f64),
            "count",
        ),
        metric(
            "statesync.udp_retransmits",
            mean(&traced, |r| r.counts.udp_retransmits as f64),
            "count",
        ),
        metric(
            "statesync.udp_stale_batches",
            mean(&traced, |r| r.counts.udp_stale_batches as f64),
            "count",
        ),
        metric(
            "statesync.udp_datagrams_sent",
            mean(&traced, |r| r.counts.udp_datagrams_sent as f64),
            "count",
        ),
        metric(
            "statesync.udp_datagrams_received",
            mean(&traced, |r| r.counts.udp_datagrams_received as f64),
            "count",
        ),
        metric(
            "bench.drops_injected",
            records.iter().map(|r| r.drops).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "reconcile_core.frames_in",
            mean(&traced, |r| b(r).frames_in as f64),
            "count",
        ),
        metric(
            "reconcile_core.frames_out",
            mean(&traced, |r| b(r).frames_out as f64),
            "count",
        ),
        metric(
            "reconcile_core.bytes_in",
            mean(&traced, |r| b(r).bytes_in as f64),
            "B",
        ),
        metric(
            "reconcile_core.bytes_out",
            mean(&traced, |r| b(r).bytes_out as f64),
            "B",
        ),
        metric(
            "riblt.units_per_diff",
            traced_units as f64 / traced_diffs as f64,
            "count",
        ),
        metric(
            "riblt.raw_decode_ms",
            mean(&traced, |r| r.raw_decode_ms.unwrap_or(0.0)),
            "ms",
        ),
        metric(
            "server.serve_busy_ms",
            (after.serve_cpu_ns - before.serve_cpu_ns) as f64 / 1e6 / syncs,
            "ms",
        ),
        metric(
            "server.serve_batch_p50_us",
            window_quantile(&before.serve_batch, &after.serve_batch, 0.5) / 1e3,
            "us",
        ),
        metric(
            "server.serve_batch_p99_us",
            window_quantile(&before.serve_batch, &after.serve_batch, 0.99) / 1e3,
            "us",
        ),
        metric(
            "server.wire_cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            "ratio",
        ),
        metric(
            "server.handshake_p50_us",
            window_quantile(&before.handshake, &after.handshake, 0.5) / 1e3,
            "us",
        ),
        metric(
            "server.admin_write_ms",
            if admin_writes == 0 {
                0.0
            } else {
                admin_s * 1e3 / admin_writes as f64
            },
            "ms",
        ),
        metric(
            "server.connection_errors",
            (after.connection_errors - before.connection_errors) as f64,
            "count",
        ),
        metric(
            "server.handshake_failures",
            (after.handshake_failures - before.handshake_failures) as f64,
            "count",
        ),
        metric(
            "server.backpressure_pauses",
            (after.backpressure_pauses - before.backpressure_pauses) as f64,
            "count",
        ),
        metric("bench.rss_growth_mb", rss_growth_mb, "MiB"),
        metric(
            "obs.trace_overhead_ratio",
            median(&traced_walls) / median(&plain),
            "ratio",
        ),
    ])
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let server_items = workload::server_items(args.seed);

    // Set-up: daemon spawn plus seeding, until the first accepted handshake.
    // Input generation above is excluded.
    let config = daemon_config(workload);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            Daemon::<Item>::shutdown(previous);
        }
        let t = Instant::now();
        let spawned = Daemon::<Item>::spawn(config.clone(), server_items.iter().copied())
            .map_err(|e| format!("daemon spawn: {e}"))?;
        first_accept(spawned.data_addr())?;
        setup.push(t.elapsed().as_secs_f64());
        daemon = Some(spawned);
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let rss_setup_mb = sys::peak_rss_mb()?;
    let admin = if workload.churn_pairs > 0 {
        Some(AdminClient::connect(daemon.admin_addr()).map_err(|e| format!("admin connect: {e}"))?)
    } else {
        None
    };
    let mut bench = Bench {
        workload,
        seed: args.seed,
        server: server_items,
        daemon,
        admin,
        partitioner: ShardPartitioner::new(key(), SHARDS),
        epoch: Instant::now(),
        spans: Vec::new(),
        wrong_outputs: 0,
    };

    // Warm-up, outside the window: the lazy sketch-cache extension and the
    // first wire-cache fill happen once per daemon.
    for k in 0..workload.cycle() as u64 {
        bench.run_sync(WARMUP_BASE + k, false);
    }

    // The traced run alternates traced and untraced staleness cycles, so
    // both halves see the same mix; the window always ends on a whole block.

    let block = if args.trace {
        2 * workload.cycle()
    } else {
        workload.cycle()
    } as u64;
    let before = ServerSnapshot::take(bench.daemon.metrics());
    let window = Instant::now();
    let mut records = Vec::new();
    let mut index = 0u64;
    while window.elapsed().as_secs_f64() < args.seconds || !index.is_multiple_of(block) {
        let traced = args.trace && (index / workload.cycle() as u64) % 2 == 1;
        records.push(bench.run_sync(index, traced));
        index += 1;
    }
    let after = ServerSnapshot::take(bench.daemon.metrics());

    let drops: u64 = records.iter().map(|r| r.drops).sum();
    if workload.loss > 0.0 && drops == 0 {
        return Err("the loss conduit dropped nothing: the run exercised no loss".into());
    }
    let metrics = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.csv", workload.name, args.seed));
        trace::write_spans(&path, &bench.spans).map_err(|e| format!("writing spans: {e}"))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            bench.spans.len(),
            path.display()
        );
        let rss_growth_mb = sys::peak_rss_mb()? - rss_setup_mb;
        per_layer(workload, &records, &before, &after, rss_growth_mb)?
    } else {
        end_to_end(&records, &setup, rss_setup_mb)?
    };
    bench.daemon.shutdown();

    let failed = records.iter().filter(|r| !r.ok).count();
    for m in &metrics {
        println!(
            "perfbench: {} {} = {} {}",
            workload.name, m.name, m.value, m.unit
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.wrong_outputs == 0,
        records.len(),
        failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
