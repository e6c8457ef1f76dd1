//! The entry points a tape is driven through, from the wire down to the
//! hybrid storage layer, and the span recorder that times every harness
//! call made on them.

use std::time::Instant;

use dataspread_client::RemoteSession;
use dataspread_engine::{EngineError, SheetEngine};
use dataspread_grid::{Cell, CellAddr, CellValue, Rect};
use dataspread_proto::{Edit, EditReceipt, WindowPatch};
use dataspread_relstore::codec::Reader;
use dataspread_workspace::{Session, WorkspaceError};

use crate::tape::{Action, Kind};

/// The sheet every workload works on.
pub const SHEET: &str = "bench";

/// An entry point, from the top of the stack down.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// `RemoteSession` over loopback TCP to a durable workspace.
    Remote,
    /// In-process `Session` on a durable workspace.
    Durable,
    /// In-process `Session` on an in-memory workspace.
    Memory,
    /// `SheetEngine`, in memory.
    Engine,
    /// `HybridSheet` (`get_cells` / `set_cell` / `insert_rows`).
    Hybrid,
}

impl Level {
    pub const ALL: [Level; 5] = [
        Level::Remote,
        Level::Durable,
        Level::Memory,
        Level::Engine,
        Level::Hybrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Level::Remote => "remote",
            Level::Durable => "session",
            Level::Memory => "memory",
            Level::Engine => "engine",
            Level::Hybrid => "hybrid",
        }
    }
}

/// What a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Part {
    /// One user action at the span's level.
    Action(Kind),
    /// `WindowPatch::encode` of the fetched window.
    Encode,
    /// `WindowPatch::decode` of those bytes.
    Decode,
    /// `get_cells` inside an engine-level fetch.
    GetCells,
    /// `WindowPatch::from_cells` inside an engine-level fetch.
    PatchBuild,
}

impl Part {
    pub fn name(self) -> &'static str {
        match self {
            Part::Action(kind) => kind.name(),
            Part::Encode => "patch_encode",
            Part::Decode => "patch_decode",
            Part::GetCells => "get_cells",
            Part::PatchBuild => "patch_build",
        }
    }
}

/// One harness call. An action's parent is the same action one level
/// up; a child part's parent is its action at the same level.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub part: Part,
    pub client: u8,
    pub action: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Per-thread span store. Spans stay in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    pub level: Level,
    pub client: u8,
    /// Record child parts (encode/decode, get_cells/patch_build).
    pub children: bool,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Recorder {
    pub fn new(epoch: Instant, level: Level, client: u8, children: bool) -> Recorder {
        Recorder {
            epoch,
            level,
            client,
            children,
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            first_error: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as `part` of action `action`. Returns `f`'s value; a
    /// failure is counted (never retried) and yields `None`.
    pub fn time<T>(
        &mut self,
        part: Part,
        action: u32,
        f: impl FnOnce(&mut Recorder) -> Result<T, String>,
    ) -> Option<T> {
        let is_action = matches!(part, Part::Action(_));
        if is_action {
            self.attempted += 1;
        }
        let start_ns = self.now();
        let res = f(self);
        let end_ns = self.now();
        self.spans.push(Span {
            part,
            client: self.client,
            action,
            start_ns,
            end_ns,
            ok: res.is_ok(),
        });
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                if is_action {
                    self.failed += 1;
                }
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// Latencies (µs) of the successful spans of `part`, in the order
    /// they were taken.
    pub fn latencies(&self, part: Part) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.part == part && s.ok)
            .map(Span::micros)
            .collect()
    }
}

/// Something a tape can be driven through.
pub trait Target {
    fn fetch(&mut self, rect: Rect, rec: &mut Recorder, action: u32)
        -> Result<WindowPatch, String>;
    fn edit(&mut self, edit: &Edit) -> Result<(), String>;
}

fn ws_err(e: WorkspaceError) -> String {
    e.to_string()
}

fn engine_err(e: EngineError) -> String {
    e.to_string()
}

/// The session surface both `Session` and `RemoteSession` offer, on
/// the benchmark's one sheet.
pub trait SessionApi {
    fn fetch_window(&self, rect: Rect) -> Result<WindowPatch, WorkspaceError>;
    fn apply_edit(&self, edit: Edit) -> Result<EditReceipt, WorkspaceError>;
}

impl SessionApi for Session {
    fn fetch_window(&self, rect: Rect) -> Result<WindowPatch, WorkspaceError> {
        Session::fetch_window(self, SHEET, rect)
    }
    fn apply_edit(&self, edit: Edit) -> Result<EditReceipt, WorkspaceError> {
        Session::apply_edit(self, SHEET, edit)
    }
}

impl SessionApi for RemoteSession {
    fn fetch_window(&self, rect: Rect) -> Result<WindowPatch, WorkspaceError> {
        RemoteSession::fetch_window(self, SHEET, rect)
    }
    fn apply_edit(&self, edit: Edit) -> Result<EditReceipt, WorkspaceError> {
        RemoteSession::apply_edit(self, SHEET, edit)
    }
}

/// `RemoteSession` (level 1) or `Session` (levels 2 and 3); every edit
/// is acknowledged before the next action.
pub struct SessionTarget<S>(pub S);

impl<S: SessionApi> Target for SessionTarget<S> {
    fn fetch(&mut self, rect: Rect, _: &mut Recorder, _: u32) -> Result<WindowPatch, String> {
        self.0.fetch_window(rect).map_err(ws_err)
    }

    fn edit(&mut self, edit: &Edit) -> Result<(), String> {
        self.0.apply_edit(edit.clone()).map(drop).map_err(ws_err)
    }
}

/// Fetch through `get_cells` + `WindowPatch::from_cells`, timing both
/// halves as child spans when asked.
fn engine_fetch(
    rect: Rect,
    rec: &mut Recorder,
    action: u32,
    get: impl FnOnce(Rect) -> Vec<(CellAddr, Cell)>,
) -> Result<WindowPatch, String> {
    if !rec.children {
        return Ok(WindowPatch::from_cells(rect, get(rect)));
    }
    let cells = rec.time(Part::GetCells, action, |_| Ok(get(rect)));
    let cells = cells.expect("get_cells cannot fail");
    let patch = rec.time(Part::PatchBuild, action, |_| {
        Ok(WindowPatch::from_cells(rect, cells))
    });
    Ok(patch.expect("from_cells cannot fail"))
}

/// `SheetEngine` (level 4).
pub struct EngineTarget {
    pub engine: SheetEngine,
}

impl Target for EngineTarget {
    fn fetch(
        &mut self,
        rect: Rect,
        rec: &mut Recorder,
        action: u32,
    ) -> Result<WindowPatch, String> {
        let engine = &self.engine;
        engine_fetch(rect, rec, action, |r| engine.get_cells(r))
    }

    fn edit(&mut self, edit: &Edit) -> Result<(), String> {
        let e = &mut self.engine;
        match edit {
            Edit::Set { row, col, input } => e.update_cell(CellAddr::new(*row, *col), input),
            Edit::InsertRows { at, n } => e.insert_rows(*at, *n),
            Edit::DeleteRows { at, n } => e.delete_rows(*at, *n),
            Edit::InsertCols { at, n } => e.insert_cols(*at, *n),
            Edit::DeleteCols { at, n } => e.delete_cols(*at, *n),
        }
        .map_err(engine_err)
    }
}

/// `HybridSheet` under an in-memory engine (level 5): storage only, no
/// formula work. Set inputs on the tapes are plain numbers.
pub struct HybridTarget {
    pub engine: SheetEngine,
}

impl Target for HybridTarget {
    fn fetch(
        &mut self,
        rect: Rect,
        rec: &mut Recorder,
        action: u32,
    ) -> Result<WindowPatch, String> {
        let sheet = self.engine.storage();
        engine_fetch(rect, rec, action, |r| sheet.get_cells(r))
    }

    fn edit(&mut self, edit: &Edit) -> Result<(), String> {
        let h = self.engine.storage_mut();
        match edit {
            Edit::Set { row, col, input } => {
                let addr = CellAddr::new(*row, *col);
                match input.trim() {
                    "" => h.clear_cell(addr),
                    s => {
                        let value = s
                            .parse::<f64>()
                            .map_or_else(|_| CellValue::Text(s.to_string()), CellValue::Number);
                        h.set_cell(addr, Cell::value(value))
                    }
                }
            }
            Edit::InsertRows { at, n } => h.insert_rows(*at, *n),
            Edit::DeleteRows { at, n } => h.delete_rows(*at, *n),
            Edit::InsertCols { at, n } => h.insert_cols(*at, *n),
            Edit::DeleteCols { at, n } => h.delete_cols(*at, *n),
        }
        .map_err(engine_err)
    }
}

/// Drive one action through `target`, timed as a span. In a traced
/// session-level run, a fetched window is also encoded and decoded as
/// child spans (the wire codec's cost, measured off the wire).
pub fn step(target: &mut dyn Target, rec: &mut Recorder, id: u32, action: &Action) -> bool {
    match action {
        Action::Fetch(rect) => {
            let patch = rec.time(Part::Action(Kind::Fetch), id, |rec| {
                target.fetch(*rect, rec, id)
            });
            if let (Some(patch), true, Level::Durable) = (&patch, rec.children, rec.level) {
                codec_spans(patch, rec, id);
            }
            patch.is_some()
        }
        Action::Edit(kind, edit) => rec
            .time(Part::Action(*kind), id, |_| target.edit(edit))
            .is_some(),
    }
}

fn codec_spans(patch: &WindowPatch, rec: &mut Recorder, id: u32) {
    let mut buf = Vec::new();
    rec.time(Part::Encode, id, |_| {
        patch.encode(&mut buf);
        Ok(())
    });
    rec.time(Part::Decode, id, |_| {
        WindowPatch::decode(&mut Reader::new(&buf)).map_err(|e| e.to_string())
    });
}
