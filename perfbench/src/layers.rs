//! The traced run: replay a workload's seeded tape at successively
//! lower public entry points and take each layer's numbers from the
//! difference between adjacent ones, plus counter deltas over each
//! replay. Every span is taken from outside the program, around a call
//! into it; the spans are written out when the run ends.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use dataspread_engine::{EngineObs, SheetEngine};
use dataspread_grid::{CellAddr, Rect};
use dataspread_obs::{MetricsRegistry, RegistrySnapshot};
use dataspread_proto::Edit;
use dataspread_workspace::{Session, Workspace};

use crate::report::Metric;
use crate::stats::{bucket_quantile, hist_delta, median, tail_percentile};
use crate::tape::{self, Action, Kind};
use crate::target::{
    step, EngineTarget, HybridTarget, Level, Part, Recorder, SessionTarget, Span, Target, SHEET,
};
use crate::workloads::{
    self, close, digest, drive, serve_loaded, Ctx, Data, Gate, Loader, Outcome,
};

/// Each level replays the actions the untraced run started in its first
/// 10 s, which keeps a traced run's five replays well inside its time
/// limit.
const PEEL_NS: u64 = 10_000_000_000;

/// Per-layer metrics that are printed but left out of the JSON: they read
/// exactly 0 on every healthy run (`server.errors`), on both workloads
/// as the program stands (the two cache hit ratios: recovery reads each
/// image page once into a cold pager, and the replayed tapes never reuse
/// a cached formula), or on the workload without formulas (the formula
/// counters). A spread of a value that is always 0 says nothing.
/// `formula.cascade_self_ms` and `formula.shift_us` carry the formula
/// layer's time on both workloads.
const PRINT_ONLY: [&str; 7] = [
    "server.errors",
    "relstore.pager.hit_ratio",
    "formula.recompute_ms_p50",
    "formula.cells_recomputed_per_cascade",
    "formula.waves_per_cascade",
    "formula.batch_share",
    "formula.cache_hit_ratio",
];

/// Edits in the WAL tail the recovery probe replays (at most).
const PROBE_TAIL: usize = 1000;

/// What the traced run reports.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
}

/// One level's replay: its spans and the counters around it.
#[derive(Default)]
struct Replay {
    recs: Vec<Recorder>,
    before: Option<RegistrySnapshot>,
    after: Option<RegistrySnapshot>,
    /// Per formula-edit `(cells recomputed, waves)` (engine level).
    cascades: Vec<(Kind, u64, u64)>,
    /// `(batch, scalar)` evaluated cells over the replay (engine level).
    evals: (u64, u64),
    /// Formula-cache `(hits, misses)` over the replay (engine level).
    cache: (u64, u64),
    /// Digest of the final sheet (single-caller workloads).
    digest: Option<u64>,
}

impl Replay {
    fn lat(&self, part: Part) -> Vec<f64> {
        let mut v: Vec<f64> = self.recs.iter().flat_map(|r| r.latencies(part)).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn med(&self, part: Part) -> f64 {
        median(&self.lat(part)).unwrap_or(f64::NAN)
    }

    fn count(&self, pred: impl Fn(Part) -> bool) -> u64 {
        self.recs
            .iter()
            .flat_map(|r| &r.spans)
            .filter(|s| pred(s.part))
            .count() as u64
    }

    fn counter(&self, key: &str) -> f64 {
        let get =
            |s: &Option<RegistrySnapshot>| s.as_ref().and_then(|s| s.counter(key)).unwrap_or(0);
        (get(&self.after) - get(&self.before)) as f64
    }

    /// Summed delta of every counter whose key starts with `prefix`.
    fn counter_family(&self, prefix: &str) -> f64 {
        let sum = |s: &Option<RegistrySnapshot>| -> u64 {
            s.as_ref().map_or(0, |s| {
                s.counters
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|&(_, v)| v)
                    .sum()
            })
        };
        (sum(&self.after) - sum(&self.before)) as f64
    }

    /// Mean of the samples a registry histogram took over the replay
    /// (0 when it took none). Exact, where a bucketed percentile of a
    /// handful of sampled ops reads the same bucket bound run after run.
    fn hist_mean(&self, key: &str) -> f64 {
        let get = |s: &Option<RegistrySnapshot>| {
            s.as_ref()
                .and_then(|s| s.histogram(key))
                .map_or((0, 0), |h| (h.sum, h.count()))
        };
        let ((s1, n1), (s0, n0)) = (get(&self.after), get(&self.before));
        if n1 == n0 {
            0.0
        } else {
            (s1 - s0) as f64 / (n1 - n0) as f64
        }
    }

    fn hist(&self, key: &str) -> Vec<u64> {
        hist_delta(
            self.after.as_ref().and_then(|s| s.histogram(key)),
            self.before.as_ref().and_then(|s| s.histogram(key)),
        )
    }
}

fn is_edit(p: Part) -> bool {
    matches!(p, Part::Action(k) if k != Kind::Fetch)
}

fn is_fetch(p: Part) -> bool {
    p == Part::Action(Kind::Fetch)
}

/// The tapes the levels replay: each caller's actions that the untraced
/// run started in its first [`PEEL_NS`].
fn prefix(workload: &str, seed: u64, untraced: &Outcome) -> Vec<Vec<Action>> {
    workloads::tapes(workload, seed)
        .into_iter()
        .zip(&untraced.recorders)
        .map(|(tape, rec)| {
            let n = rec
                .spans
                .iter()
                .filter(|s| matches!(s.part, Part::Action(_)) && s.start_ns < PEEL_NS)
                .count();
            tape.take(n).collect()
        })
        .collect()
}

fn boxed(tapes: &[Vec<Action>]) -> Vec<Box<dyn Iterator<Item = Action> + Send>> {
    tapes
        .iter()
        .map(|t| Box::new(t.clone().into_iter()) as Box<dyn Iterator<Item = Action> + Send>)
        .collect()
}

/// Replay through session-shaped `targets`, one thread per tape, with
/// registry snapshots from the in-process `local` session around it and,
/// for a single caller, a digest of the final sheet.
fn replay_sessions(
    local: &Session,
    targets: Vec<Box<dyn Target + Send>>,
    level: Level,
    tapes: &[Vec<Action>],
    epoch: Instant,
    single: Option<Rect>,
) -> Result<Replay, String> {
    let before = Some(local.metrics());
    let recs = drive(targets, boxed(tapes), level, true, None, epoch);
    let after = Some(local.metrics());
    let digest = match single {
        Some(rect) => Some(digest(&mut SessionTarget(local.clone()), rect)?),
        None => None,
    };
    Ok(Replay {
        recs,
        before,
        after,
        digest,
        ..Replay::default()
    })
}

/// One in-process session target per tape.
fn session_targets(s: &Session, tapes: &[Vec<Action>]) -> Vec<Box<dyn Target + Send>> {
    tapes
        .iter()
        .map(|_| Box::new(SessionTarget(s.clone())) as Box<dyn Target + Send>)
        .collect()
}

/// Engine- or hybrid-level replay: the tapes merged round-robin onto
/// one caller (these levels have a single owner).
fn replay_owned<T: Target>(
    target: &mut T,
    level: Level,
    tapes: &[Vec<Action>],
    epoch: Instant,
    mut probe: impl FnMut(&T) -> (u64, u64),
) -> Replay {
    let mut rec = Recorder::new(epoch, level, 0, true);
    let mut cascades = Vec::new();
    let longest = tapes.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (c, tape) in tapes.iter().enumerate() {
            let Some(action) = tape.get(i) else { continue };
            rec.client = c as u8;
            let (cells0, waves0) = probe(target);
            step(target, &mut rec, i as u32, action);
            if let Action::Edit(kind @ (Kind::Set | Kind::Cascade), _) = action {
                let (cells1, waves1) = probe(target);
                cascades.push((*kind, cells1 - cells0, waves1 - waves0));
            }
        }
    }
    Replay {
        recs: vec![rec],
        cascades,
        ..Replay::default()
    }
}

/// Numbers from checkpointing the durable level's sheet and reopening
/// it with and without a WAL tail.
#[derive(Default)]
struct Recovery {
    checkpoint_pages: f64,
    image_bytes_per_cell: f64,
    open_s: f64,
    replay_us_per_record: f64,
    pages_read_per_image_page: f64,
    hit_ratio: f64,
    tail: usize,
}

fn recovery_probe(ws: Workspace, dir: &Path, tapes: &[Vec<Action>]) -> Result<Recovery, String> {
    let s = ws.session();
    let report = s
        .checkpoint(SHEET)
        .map_err(|e| e.to_string())?
        .ok_or("durable workspace did not checkpoint")?;
    let filled = s.stats(SHEET).map_err(|e| e.to_string())?.filled_cells;
    drop(s);
    close(ws)?;
    let sheet_dir = dir.join(SHEET);
    let image = std::fs::metadata(sheet_dir.join("pages.db"))
        .map_err(|e| e.to_string())?
        .len();

    let t = Instant::now();
    let mut engine = SheetEngine::open(&sheet_dir).map_err(|e| e.to_string())?;
    let open_s = t.elapsed().as_secs_f64();

    // A WAL tail of the tape's own cell edits, then recovery again: the
    // path a restart after a crash takes.
    let tail: Vec<&Edit> = tapes
        .iter()
        .flatten()
        .filter_map(|a| match a {
            Action::Edit(Kind::Set, e) => Some(e),
            _ => None,
        })
        .take(PROBE_TAIL)
        .collect();
    for e in &tail {
        if let Edit::Set { row, col, input } = e {
            engine
                .update_cell(CellAddr::new(*row, *col), input)
                .map_err(|e| e.to_string())?;
        }
    }
    engine.save().map_err(|e| e.to_string())?;
    drop(engine);
    let t = Instant::now();
    let engine = SheetEngine::open(&sheet_dir).map_err(|e| e.to_string())?;
    let open_tail_s = t.elapsed().as_secs_f64();
    let p = engine
        .persistence_stats()
        .ok_or("durable engine has no stats")?;
    let pages_read_per_image_page = p.pager.pages_read as f64 / p.image_pages.max(1) as f64;
    let hit_ratio = p.pager.hits as f64 / (p.pager.hits + p.pager.misses).max(1) as f64;
    drop(engine);
    Ok(Recovery {
        checkpoint_pages: report.pages_written as f64,
        image_bytes_per_cell: image as f64 / filled.max(1) as f64,
        open_s,
        replay_us_per_record: (open_tail_s - open_s) * 1e6 / tail.len().max(1) as f64,
        pages_read_per_image_page,
        hit_ratio,
        tail: tail.len(),
    })
}

/// Write every span, one per line, with its parent.
fn write_spans(path: &Path, replays: &BTreeMap<Level, Replay>) -> Result<u64, String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    let io = |e: std::io::Error| e.to_string();
    writeln!(
        w,
        "level\tpart\tclient\taction\tstart_ns\tend_ns\tok\tparent"
    )
    .map_err(io)?;
    let mut n = 0u64;
    let mut up: Option<Level> = None;
    for (&level, replay) in replays {
        for s in replay.recs.iter().flat_map(|r| &r.spans) {
            let Span {
                part,
                client,
                action,
                ..
            } = *s;
            let parent = match (part, up) {
                (Part::Action(k), Some(l)) => {
                    format!("{}/{}/{client}/{action}", l.name(), k.name())
                }
                (Part::Action(_), None) => "-".to_string(),
                (_, _) => format!("{}/fetch/{client}/{action}", level.name()),
            };
            writeln!(
                w,
                "{}\t{}\t{client}\t{action}\t{}\t{}\t{}\t{parent}",
                level.name(),
                part.name(),
                s.start_ns,
                s.end_ns,
                u8::from(s.ok)
            )
            .map_err(io)?;
            n += 1;
        }
        up = Some(level);
    }
    w.flush().map_err(io)?;
    Ok(n)
}

/// Replay `workload` at every level and derive the per-layer metrics.
pub fn peel(workload: &str, ctx: &Ctx, data: &Data, untraced: &Outcome) -> Result<Layers, String> {
    let tapes = prefix(workload, ctx.seed, untraced);
    // The single-caller workload (recalc): every level replays the same
    // order of edits, so the final sheets can be compared.
    let single =
        (tapes.len() == 1).then(|| Rect::new(0, 0, tape::RECALC_ROWS + 100, tape::RECALC_COLS - 1));
    let epoch = Instant::now();
    let mut replays: BTreeMap<Level, Replay> = BTreeMap::new();
    let mut recovery = Recovery::default();

    for level in Level::ALL {
        let replay = match level {
            Level::Remote => {
                let dir = ctx.work.join("peel-remote");
                let served = serve_loaded(&dir, data.clone(), tapes.len())?;
                let targets = served
                    .clients
                    .iter()
                    .map(|(_, s)| Box::new(SessionTarget(s.clone())) as Box<dyn Target + Send>)
                    .collect();
                let replay = replay_sessions(&served.local, targets, level, &tapes, epoch, single)?;
                served.shutdown()?;
                std::fs::remove_dir_all(&dir).ok();
                replay
            }
            Level::Durable => {
                let dir = ctx.work.join("peel-durable");
                let ws = Workspace::open(&dir).map_err(|e| e.to_string())?;
                let s = ws.session();
                s.open_sheet(SHEET).map_err(|e| e.to_string())?;
                data.clone().load(Loader::Session(&s))?;
                let targets = session_targets(&s, &tapes);
                let replay = replay_sessions(&s, targets, level, &tapes, epoch, single)?;
                drop(s);
                recovery = recovery_probe(ws, &dir, &tapes)?;
                std::fs::remove_dir_all(&dir).ok();
                replay
            }
            Level::Memory => {
                let ws = Workspace::in_memory();
                let s = ws.session();
                s.open_sheet(SHEET).map_err(|e| e.to_string())?;
                data.clone().load(Loader::Session(&s))?;
                let targets = session_targets(&s, &tapes);
                replay_sessions(&s, targets, level, &tapes, epoch, single)?
            }
            Level::Engine => {
                let registry = MetricsRegistry::new();
                let obs = EngineObs::new(&registry, SHEET);
                let mut engine = SheetEngine::new();
                engine.set_obs(obs.clone());
                data.clone().load(Loader::Engine(&mut engine))?;
                let (b0, s0) = (obs.batch_evals.get(), obs.scalar_evals.get());
                let cache0 = engine.cache_stats();
                let mut target = EngineTarget { engine };
                let mut replay = replay_owned(&mut target, level, &tapes, epoch, |t| {
                    (t.engine.cells_recomputed(), obs.waves.get())
                });
                let cache1 = target.engine.cache_stats();
                replay.evals = (obs.batch_evals.get() - b0, obs.scalar_evals.get() - s0);
                replay.cache = (cache1.0 - cache0.0, cache1.1 - cache0.1);
                if let Some(rect) = single {
                    replay.digest = Some(digest(&mut target, rect)?);
                }
                replay
            }
            Level::Hybrid => {
                let mut engine = SheetEngine::new();
                data.clone().load(Loader::Engine(&mut engine))?;
                let mut target = HybridTarget { engine };
                replay_owned(&mut target, level, &tapes, epoch, |_| (0, 0))
            }
        };
        replays.insert(level, replay);
    }

    let spans_path = ctx
        .work
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("spans-{workload}.tsv"));
    let written = write_spans(&spans_path, &replays)?;
    println!(
        "# traced run: {written} spans written to {}",
        spans_path.display()
    );

    let mut gates = Vec::new();
    if single.is_some() {
        // One caller, one tape: every level that recomputes must end on
        // the same sheet (the hybrid level stores without recomputing).
        let digests: Vec<(Level, u64)> = replays
            .iter()
            .filter_map(|(l, r)| r.digest.map(|d| (*l, d)))
            .collect();
        let agree = digests.windows(2).all(|w| w[0].1 == w[1].1);
        gates.push(Gate {
            name: "levels_agree_on_final_sheet".into(),
            ok: agree && digests.len() >= 4,
            detail: digests
                .iter()
                .map(|(l, d)| format!("{}={d:016x}", l.name()))
                .collect::<Vec<_>>()
                .join(" "),
        });
    }

    let attempted = replays
        .values()
        .flat_map(|r| &r.recs)
        .map(|r| r.attempted)
        .sum();
    let failed = replays
        .values()
        .flat_map(|r| &r.recs)
        .map(|r| r.failed)
        .sum();
    for (level, r) in &replays {
        for rec in &r.recs {
            if let Some(e) = &rec.first_error {
                println!(
                    "# first error at {} caller {}: {e}",
                    level.name(),
                    rec.client
                );
            }
        }
    }
    let metrics = derive(workload, &replays, &recovery, untraced);
    Ok(Layers {
        metrics,
        gates,
        attempted,
        failed,
    })
}

/// The per-layer metric table: name, value, unit, and the end-to-end
/// metric (and workload) it should move.
fn derive(
    workload: &str,
    reps: &BTreeMap<Level, Replay>,
    rec: &Recovery,
    untraced: &Outcome,
) -> Vec<Metric> {
    let r = |l: Level| &reps[&l];
    let fetch = Part::Action(Kind::Fetch);
    let set = Part::Action(Kind::Set);
    let insert = Part::Action(Kind::InsertRow);
    // The workload's heaviest formula edit: parameter-cell edits where there are
    // any, plain sets otherwise.
    let heavy = if r(Level::Engine)
        .cascades
        .iter()
        .any(|c| c.0 == Kind::Cascade)
    {
        Kind::Cascade
    } else {
        Kind::Set
    };
    let remote = r(Level::Remote);
    let durable = r(Level::Durable);
    let engine = r(Level::Engine);
    let edits_remote = remote.count(is_edit).max(1) as f64;
    let sheet = |name: &str| format!("{name}{{sheet=\"{SHEET}\"}}");
    let ns_to_us = 1e-3;
    let q = |buckets: Vec<u64>, p: f64| bucket_quantile(&buckets, p).unwrap_or(0.0);
    // Both durable levels' fsyncs, so a slow-op workload still has
    // enough samples for a tail.
    let mut fsync = remote.hist(&sheet("wal_fsync_ns"));
    for (a, b) in fsync.iter_mut().zip(durable.hist(&sheet("wal_fsync_ns"))) {
        *a += b;
    }
    let fsync_n: u64 = fsync.iter().sum();
    let fsync_tail =
        tail_percentile(fsync_n as usize).map_or(0.0, |p| q(fsync.clone(), p / 100.0) * ns_to_us);
    let mut heavy_cells: Vec<f64> = engine
        .cascades
        .iter()
        .filter(|c| c.0 == heavy)
        .map(|c| c.1 as f64)
        .collect();
    heavy_cells.sort_by(f64::total_cmp);
    let mut heavy_waves: Vec<f64> = engine
        .cascades
        .iter()
        .filter(|c| c.0 == heavy)
        .map(|c| c.2 as f64)
        .collect();
    heavy_waves.sort_by(f64::total_cmp);
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let top = if workload == "interactive" {
        remote
    } else {
        durable
    };
    let untraced_fetch = median(&untraced.latencies(&[fetch])).unwrap_or(f64::NAN);
    let traced_fetch = top.med(fetch);

    let m = |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit);
    let mut table: Vec<(Metric, &str)> = vec![
        (
            m(
                "wire.fetch_self_us",
                remote.med(fetch) - durable.med(fetch),
                "us",
            ),
            "fetch_p50_us (interactive)",
        ),
        (
            m("wire.set_self_us", remote.med(set) - durable.med(set), "us"),
            "set_p50_us (interactive)",
        ),
        (
            m(
                "proto.patch_encode_ns",
                durable.med(Part::Encode) * 1e3,
                "ns",
            ),
            "fetch_p50_us (interactive)",
        ),
        (
            m(
                "proto.patch_decode_ns",
                durable.med(Part::Decode) * 1e3,
                "ns",
            ),
            "fetch_p50_us (interactive)",
        ),
        (
            m(
                "server.frame_bytes_out_per_fetch",
                remote.counter("server_frame_bytes_out") / remote.count(is_fetch).max(1) as f64,
                "B",
            ),
            "fetch_p50_us (interactive)",
        ),
        (
            m(
                "server.errors",
                remote.counter_family("server_errors{"),
                "count",
            ),
            "failed_frac (all)",
        ),
        (
            m("workspace.fetch_window_us", durable.med(fetch), "us"),
            "fetch_p50_us (interactive, recalc)",
        ),
        (
            m(
                "workspace.fetch_self_us",
                r(Level::Memory).med(fetch) - engine.med(fetch),
                "us",
            ),
            "fetch_p50_us (interactive, recalc)",
        ),
        (
            m("workspace.apply_edit_us", durable.med(set), "us"),
            "set_p50_us (interactive, recalc)",
        ),
        (
            m(
                "workspace.session_op_ns_mean.fetch_window",
                durable.hist_mean("session_op_ns{op=\"fetch_window\"}"),
                "ns",
            ),
            "fetch_p50_us (cross-check of harness timing)",
        ),
        (
            m(
                "workspace.session_op_ns_mean.edit",
                durable.hist_mean("session_op_ns{op=\"apply_edit\"}"),
                "ns",
            ),
            "set_p50_us (cross-check of harness timing)",
        ),
        (
            m(
                "relstore.wal.commit_wait_us",
                durable.med(set) - r(Level::Memory).med(set),
                "us",
            ),
            "set_p50_us (interactive)",
        ),
        (
            m(
                "relstore.wal.fsyncs_per_edit",
                remote.counter(&sheet("wal_fsyncs")) / edits_remote,
                "ratio",
            ),
            "set_p50_us, actions_per_s (interactive)",
        ),
        (
            m(
                "relstore.wal.commit_batch_ops_p50",
                q(remote.hist(&sheet("wal_commit_batch_ops")), 0.5),
                "count",
            ),
            "set_p99_us (interactive)",
        ),
        (
            m(
                "relstore.wal.fsync_us_p50",
                q(fsync.clone(), 0.5) * ns_to_us,
                "us",
            ),
            "set_p50_us (interactive)",
        ),
        (
            m("relstore.wal.fsync_us_tail", fsync_tail, "us"),
            "set_p99_us (interactive)",
        ),
        (
            m(
                "relstore.wal.append_bytes_per_edit",
                remote.counter(&sheet("wal_append_bytes")) / edits_remote,
                "B",
            ),
            "set_p50_us (recalc)",
        ),
        (
            m(
                "relstore.pager.pages_read_per_image_page",
                rec.pages_read_per_image_page,
                "ratio",
            ),
            "reopen_s (printed on every workload)",
        ),
        (
            m("relstore.pager.hit_ratio", rec.hit_ratio, "ratio"),
            "reopen_s (printed on every workload)",
        ),
        (
            m(
                "relstore.pager.pages_written_per_checkpoint",
                rec.checkpoint_pages,
                "count",
            ),
            "checkpoint_s (recalc)",
        ),
        (
            m("engine.get_cells_us", engine.med(Part::GetCells), "us"),
            "fetch_p50_us (interactive, recalc)",
        ),
        (
            m("engine.patch_build_us", engine.med(Part::PatchBuild), "us"),
            "fetch_p50_us (interactive, recalc)",
        ),
        (
            m("engine.hybrid.set_cell_us", r(Level::Hybrid).med(set), "us"),
            "set_p50_us (interactive)",
        ),
        (
            m("engine.update_cell_us", engine.med(set), "us"),
            "set_p50_us (recalc)",
        ),
        (
            m("engine.durable.open_s", rec.open_s, "s"),
            "reopen_s (printed on every workload)",
        ),
        (
            m(
                "engine.durable.replay_us_per_record",
                rec.replay_us_per_record,
                "us",
            ),
            "reopen_s (printed on every workload)",
        ),
        (
            m("engine.image_bytes_per_cell", rec.image_bytes_per_cell, "B"),
            "disk_bytes_per_cell (all)",
        ),
        (
            m("posmap.insert_rows_us", r(Level::Hybrid).med(insert), "us"),
            "insert_row_p50_us (interactive)",
        ),
        (
            m(
                "formula.shift_us",
                engine.med(insert) - r(Level::Hybrid).med(insert),
                "us",
            ),
            "insert_row_p50_us (recalc)",
        ),
        (
            m(
                "formula.cascade_self_ms",
                (engine.med(Part::Action(heavy)) - r(Level::Hybrid).med(Part::Action(heavy)))
                    * 1e-3,
                "ms",
            ),
            "cascade_p50_ms (recalc)",
        ),
        (
            m(
                "formula.cells_recomputed_per_cascade",
                median(&heavy_cells).unwrap_or(0.0),
                "count",
            ),
            "cascade_p50_ms (recalc)",
        ),
        (
            m(
                "formula.waves_per_cascade",
                median(&heavy_waves).unwrap_or(0.0),
                "count",
            ),
            "cascade_p50_ms (recalc)",
        ),
        (
            m(
                "formula.batch_share",
                ratio(engine.evals.0, engine.evals.1),
                "ratio",
            ),
            "cascade_p50_ms (recalc)",
        ),
        (
            m(
                "formula.cache_hit_ratio",
                ratio(engine.cache.0, engine.cache.1),
                "ratio",
            ),
            "set_p50_us, cascade_p50_ms (recalc)",
        ),
        (
            m("trace.fetch_p50_us", traced_fetch, "us"),
            "fetch_p50_us (traced, same entry point)",
        ),
        (
            m(
                "trace.overhead_frac",
                traced_fetch / untraced_fetch - 1.0,
                "ratio",
            ),
            "fetch_p50_us (traced vs untraced)",
        ),
    ];

    println!("# per-layer ({workload}, traced run; entry points remote > session > memory > engine > hybrid)");
    for level in Level::ALL {
        let l = r(level);
        let show = |k: Kind| {
            median(&l.lat(Part::Action(k))).map_or("-".to_string(), |v| format!("{v:.1}"))
        };
        println!(
            "#   {:<8} p50 us: fetch {} set {} cascade {} insert_row {} delete_row {} ({} actions)",
            level.name(),
            show(Kind::Fetch),
            show(Kind::Set),
            show(Kind::Cascade),
            show(Kind::InsertRow),
            show(Kind::DeleteRow),
            l.count(|p| matches!(p, Part::Action(_)))
        );
    }
    println!(
        "#   traced vs untraced fetch p50: {traced_fetch:.1} us vs {untraced_fetch:.1} us at the {} entry point; \
         recovery probe tail {} records",
        if workload == "interactive" { "remote" } else { "session" },
        rec.tail
    );
    let recompute = m(
        "formula.recompute_ms_p50",
        q(durable.hist(&sheet("recompute_ns")), 0.5) * 1e-6,
        "ms",
    );
    table.push((recompute, "cascade_p50_ms (recalc)"));
    for (metric, target) in &table {
        let json = if PRINT_ONLY.contains(&metric.name.as_str()) {
            "; printed only: 0 on every healthy run of a workload"
        } else {
            ""
        };
        println!(
            "{:<44} {:>16.4} {:<6} -> {target}{json}",
            metric.name, metric.value, metric.unit
        );
    }
    table
        .into_iter()
        .map(|(m, _)| m)
        .filter(|m| !PRINT_ONLY.contains(&m.name.as_str()))
        .collect()
}
