//! Seeded op tapes: each workload's actions are a pure function of
//! `(workload, seed, client)`. The program under test sees only the
//! generated actions, never the seed.

use dataspread_corpus::OpMix;
use dataspread_grid::Rect;
use dataspread_proto::Edit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows of the interactive sheet (bulk-imported, one ROM region).
pub const INTERACTIVE_ROWS: u32 = 200_000;
/// Columns of the interactive sheet.
pub const INTERACTIVE_COLS: u32 = 12;
/// Rows a screen shows.
pub const SCREEN_ROWS: u32 = 40;
/// Share of interactive actions that fetch a screen (the rest edit).
pub const FETCH_SHARE: f64 = 0.75;

/// Rows of imported numbers in the recalc sheet's column A.
pub const RECALC_ROWS: u32 = 30_000;
/// First (0-based) row of the B/C formula block: `B63 = SUM(A1:A64)`.
pub const RECALC_FIRST_FORMULA: u32 = 62;
/// The parameter cell every column-C formula reads (`$H$1`).
pub const PARAM: (u32, u32) = (0, 7);
/// Rows where recalc inserts and deletes land: inside the formula
/// block, just below its first rows.
pub const RECALC_STRUCTURAL: std::ops::Range<u32> = 100..200;
/// Columns a recalc screen shows (A..H, so the parameter cell is in view).
pub const RECALC_COLS: u32 = 8;

/// What an action is, for latency accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// A screen-window fetch.
    Fetch,
    /// A value edit with a small (or no) recompute cascade.
    Set,
    /// An edit of the recalc parameter cell: a ~30k-cell cascade.
    Cascade,
    /// A one-row insert.
    InsertRow,
    /// A one-row delete.
    DeleteRow,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fetch => "fetch",
            Kind::Set => "set",
            Kind::Cascade => "cascade",
            Kind::InsertRow => "insert_row",
            Kind::DeleteRow => "delete_row",
        }
    }
}

/// One user action.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    Fetch(Rect),
    Edit(Kind, Edit),
}

impl Action {
    #[cfg(test)]
    pub fn kind(&self) -> Kind {
        match self {
            Action::Fetch(_) => Kind::Fetch,
            Action::Edit(kind, _) => *kind,
        }
    }
}

/// The generator seed of one stream of one workload.
fn stream_rng(workload: &str, seed: u64, stream: u64) -> StdRng {
    let tag = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    StdRng::seed_from_u64(tag ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.rotate_left(32))
}

/// Edits drawn with the paper's Appendix C mix (`OpMix::default()`):
/// change an existing cell, fill a new cell, or insert a row, at
/// positions uniform over the sheet's current rows. The mix's 0.01%
/// column inserts are drawn as row inserts, so every edit is one of the
/// measured kinds.
#[derive(Clone, Debug)]
struct MixSampler {
    mix: OpMix,
    rows: u32,
    cols: u32,
}

impl MixSampler {
    fn new(rows: u32, cols: u32) -> MixSampler {
        MixSampler {
            mix: OpMix::default(),
            rows,
            cols,
        }
    }

    fn sample(&mut self, rng: &mut StdRng) -> (Kind, Edit) {
        let x: f64 = rng.gen();
        let value = rng.gen_range(0..100_000u32).to_string();
        if x < self.mix.update_cell {
            let edit = Edit::Set {
                row: rng.gen_range(0..self.rows),
                col: rng.gen_range(0..self.cols),
                input: value,
            };
            (Kind::Set, edit)
        } else if x < self.mix.update_cell + self.mix.add_cell {
            // A new cell anywhere in the bounding box grown by one, as
            // `OpMix::sample` draws it.
            let row = rng.gen_range(0..=self.rows);
            let col = rng.gen_range(0..=self.cols);
            self.rows = self.rows.max(row + 1);
            (
                Kind::Set,
                Edit::Set {
                    row,
                    col,
                    input: value,
                },
            )
        } else {
            let at = rng.gen_range(0..self.rows);
            self.rows += 1;
            (Kind::InsertRow, Edit::InsertRows { at, n: 1 })
        }
    }
}

/// One interactive client: 75% screen fetches (page to page, with
/// occasional random jumps), 25% Appendix C edits.
pub struct Interactive {
    rng: StdRng,
    sampler: MixSampler,
    top: u32,
}

impl Interactive {
    pub fn new(seed: u64, client: u64) -> Interactive {
        let mut rng = stream_rng("interactive", seed, client);
        let top = rng.gen_range(0..INTERACTIVE_ROWS - SCREEN_ROWS);
        Interactive {
            rng,
            sampler: MixSampler::new(INTERACTIVE_ROWS, INTERACTIVE_COLS),
            top,
        }
    }
}

impl Iterator for Interactive {
    type Item = Action;

    fn next(&mut self) -> Option<Action> {
        if self.rng.gen::<f64>() >= FETCH_SHARE {
            let (kind, edit) = self.sampler.sample(&mut self.rng);
            return Some(Action::Edit(kind, edit));
        }
        let max_top = self.sampler.rows - SCREEN_ROWS;
        let step: f64 = self.rng.gen();
        self.top = if step < 0.7 {
            (self.top + SCREEN_ROWS).min(max_top)
        } else if step < 0.9 {
            self.top.saturating_sub(SCREEN_ROWS)
        } else {
            self.rng.gen_range(0..=max_top)
        };
        Some(Action::Fetch(Rect::new(
            self.top,
            0,
            self.top + SCREEN_ROWS - 1,
            INTERACTIVE_COLS - 1,
        )))
    }
}

/// Ops per recalc block: one parameter-cell edit, eight column-A edits and one
/// structural edit, in a seeded order. Fixing the counts per block keeps
/// every prefix of the tape at the 10/80/10 mix, so a time-bounded run
/// measures the same mix whatever the seed.
const RECALC_BLOCK: usize = 10;

/// The recalc op stream: 10% parameter-cell edits, 80% column-A edits, 10% row
/// insert or delete near the top of the block (alternating, so the block
/// keeps its size); every op is followed by a fetch of the 40-row screen
/// at its spot.
pub struct Recalc {
    rng: StdRng,
    rows: u32,
    blocks: u64,
    block: Vec<Kind>,
    pending: Option<Action>,
}

impl Recalc {
    pub fn new(seed: u64) -> Recalc {
        Recalc {
            rng: stream_rng("recalc", seed, 0),
            rows: RECALC_ROWS,
            blocks: 0,
            block: Vec::new(),
            pending: None,
        }
    }

    fn next_kind(&mut self) -> Kind {
        if self.block.is_empty() {
            let structural = if self.blocks.is_multiple_of(2) {
                Kind::InsertRow
            } else {
                Kind::DeleteRow
            };
            self.blocks += 1;
            self.block = vec![Kind::Set; RECALC_BLOCK];
            self.block[0] = Kind::Cascade;
            self.block[1] = structural;
            for i in (1..RECALC_BLOCK).rev() {
                let j = self.rng.gen_range(0..=i);
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("refilled above")
    }
}

impl Iterator for Recalc {
    type Item = Action;

    fn next(&mut self) -> Option<Action> {
        if let Some(fetch) = self.pending.take() {
            return Some(fetch);
        }
        let (action, spot) = match self.next_kind() {
            Kind::Cascade => {
                let edit = Edit::Set {
                    row: PARAM.0,
                    col: PARAM.1,
                    input: self.rng.gen_range(1..100u32).to_string(),
                };
                (Action::Edit(Kind::Cascade, edit), 0)
            }
            Kind::Set => {
                let row = self.rng.gen_range(0..self.rows);
                let edit = Edit::Set {
                    row,
                    col: 0,
                    input: self.rng.gen_range(0..100_000u32).to_string(),
                };
                (Action::Edit(Kind::Set, edit), row)
            }
            kind => {
                // Near the top of the formula block, so every insert or
                // delete shifts (nearly) all ~60k formula references.
                let at = self.rng.gen_range(RECALC_STRUCTURAL);
                let edit = if kind == Kind::InsertRow {
                    self.rows += 1;
                    Edit::InsertRows { at, n: 1 }
                } else {
                    self.rows -= 1;
                    Edit::DeleteRows { at, n: 1 }
                };
                (Action::Edit(kind, edit), at)
            }
        };
        let top = spot.saturating_sub(SCREEN_ROWS / 2);
        self.pending = Some(Action::Fetch(Rect::new(
            top,
            0,
            top + SCREEN_ROWS - 1,
            RECALC_COLS - 1,
        )));
        Some(action)
    }
}

/// Seed for the interactive sheet's imported numbers.
pub fn interactive_data_rng(seed: u64) -> StdRng {
    stream_rng("interactive-data", seed, 0)
}

/// Seed for the recalc sheet's column A.
pub fn recalc_data_rng(seed: u64) -> StdRng {
    stream_rng("recalc-data", seed, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(it: impl Iterator<Item = Action>) -> Vec<Action> {
        it.take(2000).collect()
    }

    #[test]
    fn same_seed_same_tape() {
        assert_eq!(
            prefix(Interactive::new(7, 0)),
            prefix(Interactive::new(7, 0))
        );
        assert_eq!(prefix(Recalc::new(7)), prefix(Recalc::new(7)));
    }

    #[test]
    fn different_seed_or_client_different_tape() {
        assert_ne!(
            prefix(Interactive::new(7, 0)),
            prefix(Interactive::new(8, 0))
        );
        assert_ne!(
            prefix(Interactive::new(7, 0)),
            prefix(Interactive::new(7, 1))
        );
        assert_ne!(prefix(Recalc::new(7)), prefix(Recalc::new(8)));
    }

    #[test]
    fn interactive_mix_matches_the_design() {
        let tape: Vec<Action> = Interactive::new(1, 0).take(20_000).collect();
        let share =
            |k: Kind| tape.iter().filter(|a| a.kind() == k).count() as f64 / tape.len() as f64;
        assert!((share(Kind::Fetch) - 0.75).abs() < 0.02);
        assert!((share(Kind::Set) - 0.20).abs() < 0.02);
        assert!((share(Kind::InsertRow) - 0.05).abs() < 0.01);
    }

    #[test]
    fn recalc_follows_every_op_with_a_fetch() {
        let tape = prefix(Recalc::new(3));
        for pair in tape.chunks(2) {
            assert_ne!(pair[0].kind(), Kind::Fetch);
            assert_eq!(pair[1].kind(), Kind::Fetch);
        }
    }

    #[test]
    fn every_recalc_block_holds_the_exact_mix() {
        let ops: Vec<Kind> = Recalc::new(5)
            .take(2 * RECALC_BLOCK * 40)
            .map(|a| a.kind())
            .filter(|&k| k != Kind::Fetch)
            .collect();
        for (i, block) in ops.chunks(RECALC_BLOCK).enumerate() {
            let n = |k: Kind| block.iter().filter(|&&b| b == k).count();
            assert_eq!(n(Kind::Cascade), 1);
            assert_eq!(n(Kind::Set), 8);
            let structural = if i % 2 == 0 {
                Kind::InsertRow
            } else {
                Kind::DeleteRow
            };
            assert_eq!(n(structural), 1);
        }
    }
}
