//! `daemon-mixed`: an in-process `mhd_daemon::Daemon` reached through two
//! `mhd_daemon::Client` connections over a Unix socket.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mhd_daemon::{Client, Daemon, DaemonConfig, DaemonResult, ServeHandle, SharedStore};
use mhd_workload::{FileEntry, Snapshot};

use crate::cli_front::leaf;
use crate::spans::Spans;
use crate::{sys, time_setup, Counts, Ctx, Rng, Round, CHUNKER, ECS, SD};

/// Client connections, one tenant each: one per vCPU of a 2-vCPU host.
const CLIENTS: usize = 2;
/// Files restored per committed stream. One restore is a sub-millisecond
/// call, and its p95 is set by the few that meet a publish. Eight per
/// stream give each round's p95 about 90 samples beyond it; in one long
/// run each, its round-to-round deviation was 10% with eight and 18% with
/// three.
const RESTORES_PER_COMMIT: usize = 8;

fn config() -> DaemonConfig {
    // Default I/O tuning: `Durability::Rename`.
    DaemonConfig { ecs: ECS, sd: SD, chunker: CHUNKER, ..DaemonConfig::default() }
}

/// A committed stream: its session label and its generated files.
type Committed<'a> = (String, &'a Snapshot);

/// Restores `label/<file>` and byte-compares it with the input.
fn restore_one(
    ctx: &Ctx,
    conn: &mut Client,
    tid: usize,
    (label, file): (&str, &FileEntry),
    r: &mut Round,
    spans: &Spans,
) {
    let name = format!("{label}/{}", leaf(&file.path));
    r.attempted += 1;
    let op = spans.op_id();
    let t0 = Instant::now();
    let result = conn.restore(&name);
    let t1 = Instant::now();
    r.restore_ms.push((t1 - t0).as_secs_f64() * 1e3);
    let root = spans.record("restore", op, None, tid, t0, t1);
    match result {
        Ok(got) => {
            r.check_restore(ctx, &name, &got, &file.data);
            spans.record("verify", op, Some(root), tid, t1, Instant::now());
        }
        Err(e) => r.fail(format!("restore {name}: {e}")),
    }
}

/// Client `c`'s closed loop over its machines' streams, day-major: commit
/// a stream, then restore files from streams it committed earlier.
fn drive(ctx: &Ctx, conn: &mut Client, c: usize, spans: &Spans) -> Round {
    let mut r = Round::default();
    let mut rng = Rng(ctx.seed ^ (c as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut committed: Vec<Committed> = Vec::new();
    for snap in ctx.corpus.snapshots.iter().filter(|s| s.machine % CLIENTS == c) {
        let label = format!("m{}d{}", snap.machine, snap.day);
        r.attempted += 1;
        let op = spans.op_id();
        let t0 = Instant::now();
        let result = (|| -> DaemonResult<_> {
            conn.begin(&label)?;
            for file in &snap.files {
                conn.send_file(leaf(&file.path), &file.data)?;
            }
            let sent = Instant::now();
            Ok((sent, conn.commit()?))
        })();
        let t1 = Instant::now();
        r.commit_ms.push((t1 - t0).as_secs_f64() * 1e3);
        match result {
            Ok((sent, summary)) => {
                let root = spans.record("commit", op, None, c, t0, t1);
                spans.record("send", op, Some(root), c, t0, sent);
                spans.record("commit_call", op, Some(root), c, sent, t1);
                if summary.input_bytes != snap.total_bytes() {
                    r.fail(format!(
                        "commit {label}: daemon took {} of {} bytes",
                        summary.input_bytes,
                        snap.total_bytes()
                    ));
                }
                committed.push((label, snap));
            }
            Err(e) => {
                let _ = conn.abort();
                r.fail(format!("commit {label}: {e}"));
            }
        }
        if !committed.is_empty() {
            for _ in 0..RESTORES_PER_COMMIT {
                // An earlier stream when there is one, else the one just
                // committed.
                let earlier = committed.len().saturating_sub(1).max(1);
                let (label, snap) = &committed[rng.below(earlier)];
                let file = &snap.files[rng.below(snap.files.len())];
                restore_one(ctx, conn, c, (label.as_str(), file), &mut r, spans);
            }
        }
    }
    r
}

fn absorb(into: &mut Round, r: Round) {
    into.commit_ms.extend(r.commit_ms);
    into.restore_ms.extend(r.restore_ms);
    into.restored_bytes += r.restored_bytes;
    into.attempted += r.attempted;
    into.failed += r.failed;
}

/// Sums the commit-path metrics into the fresh `counts`:
/// `SharedStore::commit` attributes them to a `tenant=<name>` obs scope,
/// which restores never enter. The restore path's read-ahead is what the
/// whole process counted outside those scopes.
fn tenant_counts(delta: &mhd_obs::Snapshot, counts: &mut Counts) {
    for (label, sub) in &delta.scopes {
        if label.starts_with("tenant=") {
            counts.add(sub);
        }
    }
    let outside = |name: &str| delta.counter(name).saturating_sub(counts.counter(name));
    counts.restore_readahead = (outside("store.readahead_hits"), outside("store.readahead_fills"));
}

/// Starts a daemon over `store` listening on `socket`; the flag stops it
/// when the `SHUTDOWN` request cannot be sent.
fn start(
    store: &Path,
    socket: &Path,
    config: DaemonConfig,
) -> DaemonResult<(ServeHandle, Arc<AtomicBool>, Arc<SharedStore>)> {
    let daemon = Daemon::open(store, config)?;
    let (flag, shared) = (daemon.shutdown_flag(), daemon.store().clone());
    Ok((daemon.spawn(socket)?, flag, shared))
}

/// Stops a started daemon: `SHUTDOWN` over `conn` when there is one, else
/// (or when that fails) the shutdown flag; then waits for the serve loop.
fn stop(conn: Option<&mut Client>, handle: ServeHandle, flag: &AtomicBool) -> Result<(), String> {
    let sent = conn.map(|c| c.shutdown().map_err(|e| e.to_string()));
    if !matches!(sent, Some(Ok(()))) {
        flag.store(true, Ordering::SeqCst);
    }
    let joined = handle.join().map_err(|e| format!("serve thread: {e}"));
    sent.unwrap_or(Ok(())).and(joined)
}

/// Opens the store and serves it until a ping is answered; returns the
/// elapsed seconds, then stops the daemon (outside the timer).
fn reopen(store: &Path, socket: &Path, config: DaemonConfig) -> Result<f64, String> {
    let t0 = Instant::now();
    let (handle, flag, _) = start(store, socket, config).map_err(|e| format!("open: {e}"))?;
    let pinged = Client::connect(socket).and_then(|mut c| c.ping().map(|()| c));
    let secs = t0.elapsed().as_secs_f64();
    match pinged {
        Ok(mut client) => stop(Some(&mut client), handle, &flag).map(|()| secs),
        Err(e) => {
            let _ = stop(None, handle, &flag);
            Err(format!("ping: {e}"))
        }
    }
}

pub(crate) fn round(
    ctx: &Ctx,
    spans: &Spans,
    counts: Option<&mut Counts>,
    count_heap: bool,
) -> Round {
    let mut r = Round { input_bytes: ctx.corpus.total_bytes(), ..Round::default() };
    let store = ctx.store();
    let socket = ctx.work.join("mhd.sock");
    sys::clean_and_sync(&store);
    let (handle, flag, shared) = match start(&store, &socket, config()) {
        Ok(started) => started,
        Err(e) => {
            r.attempted += 1;
            r.fail(format!("start daemon: {e}"));
            return r;
        }
    };
    let mut conns: Vec<Client> = Vec::new();
    for c in 0..CLIENTS {
        match Client::connect(&socket).and_then(|mut cl| cl.open(&format!("t{c}")).map(|()| cl)) {
            Ok(cl) => conns.push(cl),
            Err(e) => {
                r.attempted += 1;
                r.fail(format!("client {c}: {e}"));
            }
        }
    }

    let traced = counts.is_some();
    if traced {
        mhd_obs::trace_start(mhd_obs::DEFAULT_TRACE_CAPACITY);
    }
    let obs0 = mhd_obs::snapshot();
    let written0 = sys::io_write_bytes();
    if count_heap {
        sys::heap_count_start();
    }
    let phase = Instant::now();
    let logs: Vec<Round> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || drive(ctx, conn, c, spans)))
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    r.backup_secs = phase.elapsed().as_secs_f64();
    if count_heap {
        r.peak_mem_bytes = sys::heap_count_stop();
    }
    if let Some(counts) = counts {
        counts.write_bytes = Some(sys::io_write_bytes().saturating_sub(written0));
        tenant_counts(&mhd_obs::snapshot().diff(&obs0), counts);
        mhd_obs::trace_stop();
        drop(mhd_obs::trace_drain());
    }
    for log in logs {
        absorb(&mut r, log);
    }

    // The daemon must have taken exactly the generated volume.
    r.attempted += 1;
    let input = shared.stats().input_bytes;
    if input != ctx.corpus.total_bytes() {
        r.fail(format!("daemon input_bytes {input} != generated {}", ctx.corpus.total_bytes()));
    }
    drop(shared);
    let stopped = stop(conns.first_mut(), handle, &flag);
    drop(conns);
    if let Err(e) = stopped {
        r.attempted += 1;
        r.fail(format!("daemon shutdown: {e}"));
    }

    r.read_store(ctx);
    time_setup(&mut r, || reopen(&store, &socket, config()));
    r
}
