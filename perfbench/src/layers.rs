//! The traced run: one untraced and one traced round of the workload, then
//! replays of the chunker, SHA-1 and Bloom filter over the same input, and
//! per-layer metrics from the program's obs counters and the store.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use mhd_bloom::BloomFilter;
use mhd_chunking::Chunker;
use mhd_core::EngineConfig;
use mhd_store::{DirBackend, Substrate};

use crate::spans::Spans;
use crate::{final_fsck, round, sys, Counts, Ctx, Front, Metric, CHUNKER, ECS};

/// What the replays measured.
struct Replay {
    bytes: u64,
    chunks: u64,
    chunk_secs: f64,
    hash_secs: f64,
    /// XOR-fold of every replayed digest's first eight bytes.
    checksum: u64,
    bloom_ops: u64,
    bloom_secs: f64,
    /// Files whose cut points do not tile them.
    untiled: u64,
}

/// Replays the workload's chunker (`cut_points`) over every input file,
/// SHA-1 over every replayed chunk, and Bloom insert + contains of every
/// digest into a filter of the engine's size.
fn replay(ctx: &Ctx) -> Replay {
    let chunker = CHUNKER.build(ECS).expect("the benchmark's chunker parameters are valid");
    let mut r = Replay {
        bytes: 0,
        chunks: 0,
        chunk_secs: 0.0,
        hash_secs: 0.0,
        checksum: 0,
        bloom_ops: 0,
        bloom_secs: 0.0,
        untiled: 0,
    };
    let mut digests = Vec::new();
    for file in ctx.corpus.snapshots.iter().flat_map(|s| &s.files) {
        let data: &[u8] = &file.data;
        let t0 = Instant::now();
        let cuts = black_box(chunker.cut_points(black_box(data)));
        r.chunk_secs += t0.elapsed().as_secs_f64();
        let tiles =
            cuts.last().copied() == Some(data.len()) || (data.is_empty() && cuts.is_empty());
        if !tiles || cuts.windows(2).any(|w| w[0] >= w[1]) || cuts.first() == Some(&0) {
            r.untiled += 1;
        }
        r.bytes += data.len() as u64;
        r.chunks += cuts.len() as u64;

        let t0 = Instant::now();
        let mut start = 0;
        for &end in &cuts {
            digests.push(mhd_hash::sha1(black_box(&data[start..end])));
            start = end;
        }
        r.hash_secs += t0.elapsed().as_secs_f64();
    }
    r.checksum = digests.iter().fold(0u64, |acc, d| acc.rotate_left(1) ^ d.prefix_u64());

    let bytes = EngineConfig::default().bloom_bytes;
    let mut bloom = BloomFilter::with_bytes(bytes, (bytes * 2) as u64);
    let t0 = Instant::now();
    let mut present = 0u64;
    for d in &digests {
        present += u64::from(bloom.contains(d));
        bloom.insert(d);
    }
    r.bloom_secs = t0.elapsed().as_secs_f64();
    r.bloom_ops = 2 * digests.len() as u64;
    black_box(present);
    r
}

/// Recipe shape of the final store: mean extents and mean distinct
/// containers per file recipe, via `Substrate::load_file_manifest`.
fn recipe_shape(ctx: &Ctx) -> Result<(f64, f64), String> {
    let backend = DirBackend::create(ctx.store()).map_err(|e| e.to_string())?;
    let mut substrate = Substrate::new(backend);
    let names = substrate.list_file_manifests();
    let (mut extents, mut containers) = (0usize, 0usize);
    for name in &names {
        let fm = substrate.load_file_manifest(name).map_err(|e| format!("{name}: {e}"))?;
        extents += fm.extents().len();
        containers += fm.extents().iter().map(|e| e.container).collect::<BTreeSet<_>>().len();
    }
    let n = names.len().max(1) as f64;
    Ok((extents as f64 / n, containers as f64 / n))
}

fn share(part: f64, whole: f64) -> Option<f64> {
    (whole > 0.0).then(|| part / whole)
}

pub(crate) fn traced(ctx: &Ctx) -> (u64, u64, Vec<Metric>) {
    // As in the end-to-end run, a warm-up round precedes the untraced
    // reference round.
    let warmup = round(ctx, &Spans::new(false), None, false);
    let plain = round(ctx, &Spans::new(false), None, false);
    // The store's shape comes from the untraced round: a traced
    // `mhd backup` adds a trace file to `session/`.
    let (store_files, _) = sys::tree_size(&ctx.store());
    let (_, state_bytes) = sys::tree_size(&ctx.store().join("session"));
    let spans = Spans::new(true);
    let mut c = Counts::default();
    let mut t = round(ctx, &spans, Some(&mut c), false);
    final_fsck(ctx, &mut t);
    let trace_path = ctx.work.join("trace.json");
    match spans.write_chrome(&trace_path) {
        Ok(n) => println!("wrote {n} benchmark spans to {}", trace_path.display()),
        Err(e) => t.fail(format!("write {}: {e}", trace_path.display())),
    }

    let (extents, containers) = recipe_shape(ctx).unwrap_or_else(|e| {
        t.fail(format!("read recipes: {e}"));
        (0.0, 0.0)
    });

    let rp = replay(ctx);
    println!(
        "replay: {} B in {} chunks, sha1 checksum {:016x}, {} bloom ops",
        rp.bytes, rp.chunks, rp.checksum, rp.bloom_ops
    );
    t.attempted += 1;
    if rp.untiled > 0 {
        t.fail(format!("{} replayed files are not tiled by their cut points", rp.untiled));
    }
    let cli = ctx.wl.front == Front::Cli;
    // One session at a time: the program chunked and hashed each input
    // exactly once, so the replay must see the same chunks.
    if cli {
        t.attempted += 1;
        let (chunked, hashed) = (c.counter("chunking.chunks"), c.counter("hashing.chunks"));
        if chunked != rp.chunks || hashed != rp.chunks {
            t.fail(format!(
                "replayed {} chunks; the program counted {chunked} chunked, {hashed} hashed",
                rp.chunks
            ));
        }
    }

    let commits = t.commit_ms.len().max(1) as f64;
    let wall_plain: f64 = plain.commit_ms.iter().sum::<f64>() / 1e3;
    let wall: f64 = t.commit_ms.iter().sum::<f64>() / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_commit = |v: f64| v / commits;
    // A name is either a counter or a histogram; its amount is whichever
    // it is.
    let amount = |name: &str| (c.counter(name) + c.hist_sum(name)) as f64;
    let (pipeline, publish) =
        (c.hist_sum("daemon.commit_pipeline_ns"), c.hist_sum("daemon.commit_publish_ns"));
    let (splice, persist) =
        (c.hist_sum("daemon.commit_splice_ns"), c.hist_sum("daemon.commit_persist_ns"));
    let (hits, misses) = (amount("cache.manifest_hits"), amount("cache.manifest_misses"));
    let (ra_hits, ra_fills) = c.restore_readahead;
    let send = spans.total_secs("send");
    let explained =
        if cli { c.cli_pipeline_secs } else { send + (pipeline + publish) as f64 / 1e9 };
    let input = ctx.corpus.total_bytes() as f64;
    let daemon = |v: f64| (!cli).then_some(v);

    let metrics: Vec<Metric> = vec![
        ("chunking.ns_per_byte", Some(rp.chunk_secs * 1e9 / rp.bytes.max(1) as f64), "ns/B"),
        ("chunking.mean_chunk_bytes", Some(rp.bytes as f64 / rp.chunks.max(1) as f64), "B"),
        ("chunking.chunks", Some(rp.chunks as f64), "count"),
        ("hash.ns_per_byte", Some(rp.hash_secs * 1e9 / rp.bytes.max(1) as f64), "ns/B"),
        ("bloom.ns_per_op", Some(rp.bloom_secs * 1e9 / rp.bloom_ops.max(1) as f64), "ns"),
        ("bloom.probes", Some(amount("bloom.probes")), "count"),
        ("bloom.false_positives", Some(amount("mhd.bloom_false_positives")), "count"),
        ("cache.manifest_lookups", Some(hits + misses), "count"),
        ("cache.manifest_hit_rate", share(hits, hits + misses), "share"),
        ("cache.manifest_misses", Some(misses), "count"),
        ("cache.evictions", Some(amount("cache.manifest_evictions")), "count"),
        ("core.dup_fraction", Some(t.dup_fraction), "share"),
        ("core.hook_hits", Some(amount("mhd.hook_hits")), "count"),
        ("core.bme_bytes", Some(amount("mhd.bme_bytes")), "B"),
        ("core.fme_bytes", Some(amount("mhd.fme_bytes")), "B"),
        ("core.hhr_splits", Some(amount("mhd.hhr_splits")), "count"),
        ("core.hhr_reload_bytes", Some(amount("store.disk_chunk_read_bytes")), "B"),
        ("core.restore_extents_per_file", Some(extents), "count"),
        ("core.restore_containers_per_file", Some(containers), "count"),
        ("store.write_bytes_per_input", c.write_bytes.map(|w| w as f64 / input), "ratio"),
        ("store.flush_ms", Some(ms(c.hist_sum("store.io_flush_ns"))), "ms"),
        ("store.flushes", Some(c.hist_count("store.io_flush_ns") as f64), "count"),
        ("store.disk_chunk_writes", Some(amount("store.disk_chunk_writes")), "count"),
        ("store.manifest_reads", Some(amount("store.manifest_reads")), "count"),
        ("store.hook_reads", Some(amount("store.hook_reads")), "count"),
        ("store.readahead_hit_rate", share(ra_hits as f64, (ra_hits + ra_fills) as f64), "share"),
        ("store.files", Some(store_files as f64), "count"),
        ("statefile.bytes", Some(state_bytes as f64), "B"),
        ("daemon.send_ms_per_commit", daemon(per_commit(send * 1e3)), "ms"),
        ("daemon.pipeline_ms_per_commit", daemon(per_commit(ms(pipeline))), "ms"),
        ("daemon.splice_ms_per_commit", daemon(per_commit(ms(splice))), "ms"),
        ("daemon.persist_ms_per_commit", daemon(per_commit(ms(persist))), "ms"),
        (
            "daemon.publish_wait_ms_per_commit",
            daemon(per_commit(ms(publish.saturating_sub(splice + persist)))),
            "ms",
        ),
        (
            "daemon.publish_fraction",
            share((splice + persist) as f64, (pipeline + splice + persist) as f64).filter(|_| !cli),
            "share",
        ),
        ("daemon.retries_per_commit", daemon(per_commit(amount("daemon.commit_retries"))), "count"),
        ("cli.pipeline_ms_per_commit", cli.then(|| per_commit(c.cli_pipeline_secs * 1e3)), "ms"),
        (
            "cli.outside_pipeline_ms_per_commit",
            cli.then(|| per_commit((wall - c.cli_pipeline_secs) * 1e3)),
            "ms",
        ),
        ("obs.trace_overhead", share(wall - wall_plain, wall_plain), "share"),
        ("obs.unexplained_share", share(wall - explained, wall), "share"),
    ];
    let attempted = warmup.attempted + plain.attempted + t.attempted;
    (attempted, warmup.failed + plain.failed + t.failed, metrics)
}
