//! The two workloads, each driven closed-loop through the user-facing
//! surface with tracing off, plus their correctness gates.

use std::hash::{DefaultHasher, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dataspread_client::{Client, ClientConfig, RemoteSession};
use dataspread_engine::SheetEngine;
use dataspread_grid::{CellAddr, CellValue, Rect, SparseSheet};
use dataspread_obs::{MetricsRegistry, RegistrySnapshot};
use dataspread_proto::Edit;
use dataspread_server::ServerHandle;
use dataspread_workspace::{Session, Workspace};
use rand::Rng;

use crate::tape::{self, Action, Interactive, Kind, Recalc};
use crate::target::{step, Level, Part, Recorder, SessionTarget, Span, Target, SHEET};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Rows per window when a gate reads a whole sheet.
const SCAN_ROWS: u32 = 1000;

/// The workloads, by name.
pub const NAMES: [&str; 2] = ["interactive", "recalc"];

/// One correctness gate's verdict.
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything an untraced run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// One recorder per caller thread, for the timed phase.
    pub recorders: Vec<Recorder>,
    /// Wall time of the timed phase (harness-only work excluded).
    pub elapsed_s: f64,
    pub reopen_s: Vec<f64>,
    pub checkpoint_s: Vec<f64>,
    pub disk_bytes_per_cell: Vec<f64>,
    pub gates: Vec<Gate>,
}

impl Outcome {
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn attempted(&self) -> u64 {
        self.recorders.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.recorders.iter().map(|r| r.failed).sum()
    }

    /// Successful latencies (µs) of any of `parts` across every caller,
    /// sorted.
    pub fn latencies(&self, parts: &[Part]) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .recorders
            .iter()
            .flat_map(|r| &r.spans)
            .filter(|s| parts.contains(&s.part) && s.ok)
            .map(Span::micros)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Actions per second of the timed phase.
    pub fn actions_per_s(&self) -> f64 {
        self.attempted() as f64 / self.elapsed_s
    }
}

/// Run-wide settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for workspaces (inside the checkout).
    pub work: PathBuf,
}

/// Block until every handle on the registry's workspace is gone, so a
/// reopen never races the old workspace's files.
fn wait_dropped(registry: Arc<MetricsRegistry>) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Arc::strong_count(&registry) > 1 {
        if Instant::now() > deadline {
            return Err("old workspace still referenced after 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Drop a workspace and wait until its files are released.
pub fn close(ws: Workspace) -> Result<(), String> {
    let registry = ws.metrics_registry();
    drop(ws);
    wait_dropped(registry)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// A digest of `rect`'s encoded windows read through `target`,
/// [`SCAN_ROWS`] rows at a time.
pub fn digest(target: &mut dyn Target, rect: Rect) -> Result<u64, String> {
    let mut rec = Recorder::new(Instant::now(), Level::Hybrid, 0, false);
    let mut h = DefaultHasher::new();
    let mut buf = Vec::new();
    let mut r1 = rect.r1;
    while r1 <= rect.r2 {
        let r2 = (r1 + SCAN_ROWS - 1).min(rect.r2);
        let patch = target.fetch(Rect::new(r1, rect.c1, r2, rect.c2), &mut rec, 0)?;
        buf.clear();
        patch.encode(&mut buf);
        h.write(&buf);
        r1 = r2 + 1;
    }
    Ok(h.finish())
}

/// Open the durable workspace at `dir` and its sheet, and fetch the
/// first screen: a restart as the user sees it. Returns the seconds it
/// took.
fn reopen(dir: &Path, screen: Rect) -> Result<(Workspace, f64), String> {
    let t = Instant::now();
    let ws = Workspace::open(dir).map_err(|e| e.to_string())?;
    let s = ws.session();
    s.open_sheet(SHEET).map_err(|e| e.to_string())?;
    s.fetch_window(SHEET, screen).map_err(|e| e.to_string())?;
    Ok((ws, t.elapsed().as_secs_f64()))
}

fn counter(snap: &RegistrySnapshot, key: &str) -> u64 {
    snap.counter(key).unwrap_or(0)
}

// ------------------------------------------------------------ loaders --

/// The interactive sheet: 200k × 12 integers.
fn interactive_rows(seed: u64) -> Vec<Vec<CellValue>> {
    let mut rng = tape::interactive_data_rng(seed);
    (0..tape::INTERACTIVE_ROWS)
        .map(|_| {
            (0..tape::INTERACTIVE_COLS)
                .map(|_| CellValue::Number(f64::from(rng.gen_range(0..100_000u32))))
                .collect()
        })
        .collect()
}

/// Column A of the recalc sheet.
fn recalc_rows(seed: u64) -> Vec<Vec<CellValue>> {
    let mut rng = tape::recalc_data_rng(seed);
    (0..tape::RECALC_ROWS)
        .map(|_| vec![CellValue::Number(f64::from(rng.gen_range(0..100_000u32)))])
        .collect()
}

/// The recalc formulas, in load order: the B fill-down, then the C
/// scalar wave, then the parameter value.
fn recalc_formulas() -> Vec<Edit> {
    let rows = tape::RECALC_FIRST_FORMULA..tape::RECALC_ROWS;
    let b = rows.clone().map(|r| Edit::Set {
        row: r,
        col: 1,
        input: format!("=SUM(A{}:A{})", r + 1 - 62, r + 2),
    });
    let c = rows.map(|r| Edit::Set {
        row: r,
        col: 2,
        input: format!("=B{}*$H$1", r + 1),
    });
    let param = Edit::Set {
        row: tape::PARAM.0,
        col: tape::PARAM.1,
        input: "1".into(),
    };
    b.chain(c).chain(std::iter::once(param)).collect()
}

/// The initial sheet of a workload, loaded through a session (durable
/// or in memory) or straight into an engine.
pub enum Loader<'a> {
    Session(&'a Session),
    Engine(&'a mut SheetEngine),
}

impl Loader<'_> {
    fn import(&mut self, width: u32, rows: Vec<Vec<CellValue>>) -> Result<(), String> {
        let at = CellAddr::new(0, 0);
        match self {
            Loader::Session(s) => s
                .import_rows(SHEET, at, width, rows)
                .map(drop)
                .map_err(|e| e.to_string()),
            Loader::Engine(e) => e
                .import_rows(at, width, rows)
                .map(drop)
                .map_err(|e| e.to_string()),
        }
    }

    /// Load edits (staged and awaited in bulk on a session).
    fn edits(&mut self, edits: Vec<Edit>) -> Result<(), String> {
        match self {
            Loader::Session(s) => {
                let mut last = 0;
                for e in edits {
                    last = s.stage_edit(SHEET, e).map_err(|e| e.to_string())?.ticket;
                }
                s.await_commit(SHEET, last).map_err(|e| e.to_string())
            }
            Loader::Engine(engine) => {
                for e in edits {
                    let Edit::Set { row, col, input } = e else {
                        unreachable!("loaders only set cells")
                    };
                    engine
                        .update_cell(CellAddr::new(row, col), &input)
                        .map_err(|e| e.to_string())?;
                }
                Ok(())
            }
        }
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        match self {
            Loader::Session(s) => s.checkpoint(SHEET).map(drop).map_err(|e| e.to_string()),
            Loader::Engine(_) => Ok(()),
        }
    }
}

/// A workload's initial data, generated once per run from the seed.
/// Loading consumes it, so a timed set-up loads a copy made before its
/// timer starts and times only the program's work.
#[derive(Clone)]
pub enum Data {
    Interactive(Vec<Vec<CellValue>>),
    /// Column A, then the formulas in load order.
    Recalc(Vec<Vec<CellValue>>, Vec<Edit>),
}

impl Data {
    pub fn new(workload: &str, seed: u64) -> Data {
        match workload {
            "interactive" => Data::Interactive(interactive_rows(seed)),
            _ => Data::Recalc(recalc_rows(seed), recalc_formulas()),
        }
    }

    /// Build the workload's initial sheet.
    pub fn load(self, mut to: Loader<'_>) -> Result<(), String> {
        match self {
            Data::Interactive(rows) => to.import(tape::INTERACTIVE_COLS, rows),
            Data::Recalc(rows, formulas) => {
                to.import(1, rows)?;
                to.edits(formulas)?;
                to.checkpoint()
            }
        }
    }

    /// The first screen a restart fetches.
    pub fn screen(&self) -> Rect {
        let cols = match self {
            Data::Interactive(_) => tape::INTERACTIVE_COLS,
            Data::Recalc(..) => tape::RECALC_COLS,
        };
        Rect::new(0, 0, tape::SCREEN_ROWS - 1, cols - 1)
    }
}

/// The op tapes of a workload, one per caller thread.
pub fn tapes(workload: &str, seed: u64) -> Vec<Box<dyn Iterator<Item = Action> + Send>> {
    match workload {
        "interactive" => (0..2)
            .map(|c| Box::new(Interactive::new(seed, c)) as Box<dyn Iterator<Item = Action> + Send>)
            .collect(),
        _ => vec![Box::new(Recalc::new(seed))],
    }
}

// -------------------------------------------------------- interactive --

/// A served durable workspace with the interactive sheet and two
/// connected clients.
pub struct Served {
    handle: ServerHandle,
    pub local: Session,
    registry: Arc<MetricsRegistry>,
    pub clients: Vec<(Client, RemoteSession)>,
}

/// A durable workspace at `dir` loaded with `data`, served on loopback,
/// with `clients` connections (no reconnects: a failed call stays
/// failed).
pub fn serve_loaded(dir: &Path, data: Data, clients: usize) -> Result<Served, String> {
    let ws = Workspace::open(dir).map_err(|e| e.to_string())?;
    let local = ws.session();
    local.open_sheet(SHEET).map_err(|e| e.to_string())?;
    data.load(Loader::Session(&local))?;
    let registry = ws.metrics_registry();
    let handle = dataspread_server::serve(ws, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let config = ClientConfig {
        reconnect_retries: 0,
        ..ClientConfig::default()
    };
    let clients = (0..clients)
        .map(|_| {
            let client = Client::connect_with(handle.local_addr(), config.clone())
                .map_err(|e| e.to_string())?;
            let session = client.session();
            session.open_sheet(SHEET).map_err(|e| e.to_string())?;
            Ok((client, session))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Served {
        handle,
        local,
        registry,
        clients,
    })
}

impl Served {
    /// Stop the server and wait for the workspace to be released.
    pub fn shutdown(self) -> Result<(), String> {
        drop(self.clients);
        self.handle.shutdown();
        drop(self.local);
        wait_dropped(self.registry)
    }
}

/// Drive `tapes` closed-loop through `targets`, one thread per tape,
/// until `deadline` (or the tapes end). Returns one recorder per thread.
pub fn drive(
    targets: Vec<Box<dyn Target + Send + '_>>,
    tapes: Vec<Box<dyn Iterator<Item = Action> + Send>>,
    level: Level,
    children: bool,
    deadline: Option<Instant>,
    epoch: Instant,
) -> Vec<Recorder> {
    let barrier = Barrier::new(targets.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = targets
            .into_iter()
            .zip(tapes)
            .enumerate()
            .map(|(i, (mut target, tape))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, level, i as u8, children);
                    barrier.wait();
                    for (id, action) in tape.enumerate() {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        step(target.as_mut(), &mut rec, id as u32, &action);
                    }
                    rec
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("caller thread panicked"))
            .collect()
    })
}

/// Rows the interactive tapes can have reached: every edit grows the
/// sheet by at most one row (an insert, or a new cell one past the end).
fn interactive_extent(recorders: &[Recorder]) -> Rect {
    let edits = recorders
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| matches!(s.part, Part::Action(k) if k != Kind::Fetch))
        .count();
    let rows = tape::INTERACTIVE_ROWS + edits as u32 + 1;
    Rect::new(0, 0, rows, tape::INTERACTIVE_COLS)
}

/// Set-up, timed: build and serve the sheet and connect the clients.
fn interactive(ctx: &Ctx, setups: usize) -> Result<(Outcome, Data), String> {
    let mut out = Outcome::default();
    let dir = ctx.work.join("interactive");
    let data = Data::new("interactive", ctx.seed);
    let mut last = None;
    for _ in 0..setups {
        if let Some(old) = last.take() {
            Served::shutdown(old)?;
        }
        std::fs::remove_dir_all(&dir).ok();
        let input = data.clone();
        let t = Instant::now();
        last = Some(serve_loaded(&dir, input, 2)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let served = last.expect("at least one set-up");

    let before = served.local.metrics();
    let targets: Vec<Box<dyn Target + Send>> = served
        .clients
        .iter()
        .map(|(_, s)| Box::new(SessionTarget(s.clone())) as Box<dyn Target + Send>)
        .collect();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(ctx.seconds);
    out.recorders = drive(
        targets,
        tapes("interactive", ctx.seed),
        Level::Remote,
        false,
        Some(deadline),
        epoch,
    );
    out.elapsed_s = epoch.elapsed().as_secs_f64();
    let after = served.local.metrics();

    // Every request the harness made was counted once by the server and
    // once by the session layer.
    let count = |part: fn(&Kind) -> bool| -> u64 {
        out.recorders
            .iter()
            .flat_map(|r| &r.spans)
            .filter(|s| matches!(s.part, Part::Action(k) if part(&k)))
            .count() as u64
    };
    let fetches = count(|k| *k == Kind::Fetch);
    let edits = count(|k| *k != Kind::Fetch);
    for (what, key, want) in [
        (
            "server_requests.fetch_window",
            "server_requests{kind=\"fetch_window\"}",
            fetches,
        ),
        (
            "server_requests.apply_edit",
            "server_requests{kind=\"apply_edit\"}",
            edits,
        ),
        (
            "session_ops.fetch_window",
            "session_ops{op=\"fetch_window\"}",
            fetches,
        ),
        (
            "session_ops.apply_edit",
            "session_ops{op=\"apply_edit\"}",
            edits,
        ),
    ] {
        let got = counter(&after, key) - counter(&before, key);
        out.gate(
            &format!("op_count.{what}"),
            got == want,
            format!("harness sent {want}, counted {got}"),
        );
    }

    // Every acknowledged edit survives a restart.
    let extent = interactive_extent(&out.recorders);
    let before_digest = digest(&mut SessionTarget(served.local.clone()), extent)?;
    served.shutdown()?;
    let (ws, secs) = reopen(&dir, data.screen())?;
    out.reopen_s.push(secs);
    let after_digest = digest(&mut SessionTarget(ws.session()), extent)?;
    out.gate(
        "restart_keeps_acknowledged_edits",
        before_digest == after_digest,
        format!(
            "sheet digest {before_digest:016x} before shutdown, {after_digest:016x} after reopen"
        ),
    );
    let filled = ws
        .session()
        .stats(SHEET)
        .map_err(|e| e.to_string())?
        .filled_cells;
    drop(ws);
    out.disk_bytes_per_cell
        .push(dir_bytes(&dir.join(SHEET)) as f64 / filled as f64);
    std::fs::remove_dir_all(&dir).ok();
    Ok((out, data))
}

// ------------------------------------------------------------- recalc --

/// Recompute the final sheet from scratch on a fresh engine with the
/// retained scalar path, and compare every value.
fn recalc_oracle(final_sheet: &SparseSheet) -> Result<(bool, String), String> {
    let mut engine = SheetEngine::new();
    let mut formulas = Vec::new();
    for (addr, cell) in final_sheet.iter() {
        match &cell.formula {
            Some(f) => formulas.push((addr, format!("={f}"))),
            None => {
                let input = match &cell.value {
                    CellValue::Number(n) => n.to_string(),
                    other => return Err(format!("unexpected literal {other:?} at {addr}")),
                };
                engine
                    .update_cell(addr, &input)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    formulas.sort_by_key(|(a, _)| (a.col, a.row));
    for (addr, f) in &formulas {
        engine.update_cell(*addr, f).map_err(|e| e.to_string())?;
    }
    engine.set_scalar_recompute(true);
    engine.recompute_all().map_err(|e| e.to_string())?;
    let mut mismatches = 0usize;
    let mut first = String::new();
    for (addr, cell) in final_sheet.iter() {
        let want = engine.value(addr);
        if want != cell.value {
            if mismatches == 0 {
                first = format!("{addr}: served {:?}, oracle {want:?}", cell.value);
            }
            mismatches += 1;
        }
    }
    Ok((
        mismatches == 0,
        format!(
            "{} cells, {} formulas, {mismatches} mismatches {first}",
            final_sheet.filled_count(),
            formulas.len()
        ),
    ))
}

/// Set-up, timed: import column A, load the formulas and checkpoint.
fn recalc(ctx: &Ctx, setups: usize) -> Result<(Outcome, Data), String> {
    let mut out = Outcome::default();
    let dir = ctx.work.join("recalc");
    let data = Data::new("recalc", ctx.seed);
    let mut last = None;
    for _ in 0..setups {
        if let Some(old) = last.take() {
            close(old)?;
        }
        std::fs::remove_dir_all(&dir).ok();
        let input = data.clone();
        let t = Instant::now();
        let w = Workspace::open(&dir).map_err(|e| e.to_string())?;
        let s = w.session();
        s.open_sheet(SHEET).map_err(|e| e.to_string())?;
        input.load(Loader::Session(&s))?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        last = Some(w);
    }
    let ws = last.expect("at least one set-up");
    let session = ws.session();

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(ctx.seconds);
    let target: Box<dyn Target + Send> = Box::new(SessionTarget(session.clone()));
    out.recorders = drive(
        vec![target],
        tapes("recalc", ctx.seed),
        Level::Durable,
        false,
        Some(deadline),
        epoch,
    );
    out.elapsed_s = epoch.elapsed().as_secs_f64();

    let final_sheet = session.snapshot(SHEET).map_err(|e| e.to_string())?;
    let (ok, detail) = recalc_oracle(&final_sheet)?;
    out.gate("final_values_match_scalar_recompute_all", ok, detail);

    let t = Instant::now();
    session.checkpoint(SHEET).map_err(|e| e.to_string())?;
    out.checkpoint_s.push(t.elapsed().as_secs_f64());
    drop(session);
    close(ws)?;
    let (ws, secs) = reopen(&dir, data.screen())?;
    out.reopen_s.push(secs);
    let reopened = ws.session().snapshot(SHEET).map_err(|e| e.to_string())?;
    out.gate(
        "restart_keeps_values_and_formulas",
        reopened == final_sheet,
        format!(
            "{} cells before, {} after",
            final_sheet.filled_count(),
            reopened.filled_count()
        ),
    );
    drop(ws);
    out.disk_bytes_per_cell
        .push(dir_bytes(&dir.join(SHEET)) as f64 / final_sheet.filled_count() as f64);
    std::fs::remove_dir_all(&dir).ok();
    Ok((out, data))
}

/// Run `workload` untraced; also returns the inputs it generated.
pub fn run(workload: &str, ctx: &Ctx, setups: usize) -> Result<(Outcome, Data), String> {
    match workload {
        "interactive" => interactive(ctx, setups),
        _ => recalc(ctx, setups),
    }
}
