//! `cli-daily`: the `mhd` binary driven as subprocesses, one `mhd backup`
//! per machine-day in day-major order, then `mhd restore` per file of the
//! latest days.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mhd_store::{BatchedDirBackend, IoConfig, Substrate};
use mhd_workload::FileEntry;

use crate::spans::Spans;
use crate::{sys, time_setup, Counts, Ctx, Round, CHUNKER, ECS, SD};

/// Restores per round: the newest files, so the p95 has 10 samples beyond
/// it.
const RESTORES: usize = 200;

/// Path of a machine-day's exported directory.
fn stream_dir(root: &Path, machine: usize, day: usize) -> PathBuf {
    root.join(format!("m{machine}")).join(format!("d{day}"))
}

/// The figures `mhd stats --store` prints that the benchmark reads.
pub(crate) struct StoreStats {
    pub(crate) input_bytes: u64,
    pub(crate) stored_data: u64,
    pub(crate) dup_bytes: u64,
    pub(crate) metadata: u64,
}

/// Runs `mhd stats --store` (both front ends write the same store format).
pub(crate) fn store_stats(ctx: &Ctx) -> Result<StoreStats, String> {
    let (out, _) = ctx.mhd(&["stats", "--store", &ctx.store_arg()])?;
    let field = |label: &str| -> Result<u64, String> {
        out.lines()
            .find_map(|l| l.strip_prefix(label))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("`mhd stats` printed no {label:?} line"))
    };
    Ok(StoreStats {
        input_bytes: field("input bytes:")?,
        stored_data: field("stored data:")?,
        dup_bytes: field("duplicate bytes:")?,
        metadata: field("metadata bytes:")?,
    })
}

/// Writes every stream as `corpus/m<machine>/d<day>/f<index>` (set-up,
/// outside any timer).
pub(crate) fn export_corpus(ctx: &Ctx) -> Result<(), String> {
    let root = ctx.work.join("corpus");
    for snap in &ctx.corpus.snapshots {
        let dir = stream_dir(&root, snap.machine, snap.day);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        for file in &snap.files {
            let path = dir.join(leaf(&file.path));
            std::fs::write(&path, &file.data)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The file name of a corpus path `m<machine>/d<day>/f<index>`.
pub(crate) fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Reads what the last `mhd backup --trace` left in the store: its obs
/// snapshot (`mhd stats --internals`) and its `backup` stage time
/// (`mhd trace --format jsonl`).
fn collect(ctx: &Ctx, counts: &mut Counts) -> Result<(), String> {
    let store = ctx.store_arg();
    let (json, _) = ctx.mhd(&["stats", "--store", &store, "--internals"])?;
    let snap: mhd_obs::Snapshot =
        serde_json::from_str(&json).map_err(|e| format!("parse internals: {e}"))?;
    counts.add(&snap);
    let (jsonl, _) = ctx.mhd(&["trace", "--store", &store, "--format", "jsonl"])?;
    let (records, _) = mhd_obs::trace_from_jsonl_lossy(&jsonl);
    let at = |begin: bool| {
        records.iter().find_map(|r| match &r.event {
            mhd_obs::TraceEvent::StageBegin { stage } if begin && stage == "backup" => {
                Some(r.ts_ns)
            }
            mhd_obs::TraceEvent::StageEnd { stage } if !begin && stage == "backup" => Some(r.ts_ns),
            _ => None,
        })
    };
    match (at(true), at(false)) {
        (Some(b), Some(e)) => counts.cli_pipeline_secs += e.saturating_sub(b) as f64 / 1e9,
        _ => return Err("backup trace lacks the `backup` stage".into()),
    }
    Ok(())
}

/// Replays the read path of `mhd restore` in-process over `targets`, to
/// count its read-ahead, which `mhd restore` does not persist: per file, a
/// fresh `BatchedDirBackend` with the default `IoConfig`, as each process
/// opens, and `mhd_core::restore::restore_file`. Returns (hits, fills).
fn replay_restores(ctx: &Ctx, r: &mut Round, targets: &[(String, &FileEntry)]) -> (u64, u64) {
    let obs0 = mhd_obs::snapshot();
    for (name, file) in targets {
        r.attempted += 1;
        let restored = BatchedDirBackend::create_with(ctx.store(), IoConfig::default())
            .and_then(|b| mhd_core::restore::restore_file(&mut Substrate::new(b), name));
        match restored {
            Ok(got) if got == file.data[..] => {}
            Ok(_) => r.fail(format!("replayed restore of {name} differs from the input")),
            Err(e) => r.fail(format!("replayed restore of {name}: {e}")),
        }
    }
    let delta = mhd_obs::snapshot().diff(&obs0);
    (delta.counter("store.readahead_hits"), delta.counter("store.readahead_fills"))
}

pub(crate) fn round(ctx: &Ctx, spans: &Spans, mut counts: Option<&mut Counts>) -> Round {
    let mut r = Round { input_bytes: ctx.corpus.total_bytes(), ..Round::default() };
    let store = ctx.store_arg();
    sys::clean_and_sync(&ctx.store());
    let corpus_root = ctx.work.join("corpus");
    let (ecs, sd) = (ECS.to_string(), SD.to_string());

    // Backup phase: one process per stream. A stream's recipes are named
    // `<label>-<stream index>/<file>`.
    let mut prefixes: Vec<Option<String>> = vec![None; ctx.corpus.snapshots.len()];
    let mut streams = 0usize;
    let mut collect_secs = 0.0;
    let phase = Instant::now();
    for (i, snap) in ctx.corpus.snapshots.iter().enumerate() {
        let label = format!("m{}d{}", snap.machine, snap.day);
        let dir = stream_dir(&corpus_root, snap.machine, snap.day);
        let dir = dir.to_string_lossy();
        let mut args = vec![
            "backup",
            &dir,
            "--store",
            &store,
            "--label",
            &label,
            "--ecs",
            &ecs,
            "--sd",
            &sd,
            "--chunker",
            CHUNKER.as_str(),
            "--durability",
            "rename",
        ];
        if counts.is_some() {
            args.push("--trace");
        }
        r.attempted += 1;
        let op = spans.op_id();
        let t0 = Instant::now();
        let (secs, result) = ctx.mhd_timed(&args);
        let t1 = Instant::now();
        r.commit_ms.push(secs * 1e3);
        spans.record("mhd_backup", op, None, 0, t0, t1);
        match result {
            Ok(_) => {
                prefixes[i] = Some(format!("{label}-{streams}"));
                streams += 1;
            }
            Err(e) => r.fail(e),
        }
        if let Some(counts) = counts.as_deref_mut() {
            let c0 = Instant::now();
            if let Err(e) = collect(ctx, counts) {
                r.fail(e);
            }
            collect_secs += c0.elapsed().as_secs_f64();
        }
    }
    r.backup_secs = phase.elapsed().as_secs_f64() - collect_secs;

    sys::sync();

    // Restore phase: files of the latest days, newest first. Each restore
    // writes a new file, removed once verified: overwriting one output
    // would make ext4 flush it on every close (its truncate heuristic),
    // timing the disk instead of `mhd restore`.
    let targets: Vec<(String, &FileEntry)> = ctx
        .corpus
        .snapshots
        .iter()
        .zip(&prefixes)
        .rev()
        .flat_map(|(snap, prefix)| {
            let prefix = prefix.as_deref().unwrap_or("missing-stream");
            snap.files.iter().map(move |f| (format!("{prefix}/{}", leaf(&f.path)), f))
        })
        .take(RESTORES)
        .collect();
    for (i, (name, file)) in targets.iter().enumerate() {
        let out = ctx.work.join(format!("restore-{i}.out"));
        let out_arg = out.to_string_lossy();
        r.attempted += 1;
        let op = spans.op_id();
        let t0 = Instant::now();
        let (secs, result) = ctx.mhd_timed(&["restore", name, "--store", &store, "-o", &out_arg]);
        let t1 = Instant::now();
        r.restore_ms.push(secs * 1e3);
        let root = spans.record("mhd_restore", op, None, 0, t0, t1);
        match result.and_then(|_| std::fs::read(&out).map_err(|e| format!("read restore: {e}"))) {
            Ok(got) => {
                r.check_restore(ctx, name, &got, &file.data);
                spans.record("verify", op, Some(root), 0, t1, Instant::now());
            }
            Err(e) => r.fail(e),
        }
        let _ = std::fs::remove_file(&out);
    }
    r.peak_mem_bytes = ctx.mhd_peak_rss();
    if let Some(counts) = counts {
        counts.restore_readahead = replay_restores(ctx, &mut r, &targets);
    }

    r.read_store(ctx);
    time_setup(&mut r, || {
        let (listing, secs) = ctx.mhd(&["ls", "--store", &store])?;
        if listing.lines().count() == 0 {
            return Err("`mhd ls` listed no recipes".into());
        }
        Ok(secs)
    });
    r
}
