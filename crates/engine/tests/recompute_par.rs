//! Differential suite pinning the wave/batch recompute pipeline to the
//! sequential per-cell tree walk it replaced.
//!
//! The oracle is a [`SheetEngine`] forced onto the retained scalar path
//! (`set_scalar_recompute`): Kahn order, one tree walk per cell, no
//! batching. The engine under test runs the wave pipeline. Random
//! formula tapes — fill-down sliding aggregates (the batch path), scalar
//! layers, chains, cycles, error producers — are replayed into both, and
//! full sheet snapshots (values *and* stored formula text) must stay
//! bit-identical throughout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::SheetEngine;
use dataspread_grid::{Cell, CellAddr, Rect};

const ROWS: u32 = 48;
const COLS: u32 = 8;

fn col_name(c: u32) -> char {
    (b'A' + c as u8) as char
}

/// A1-style address string, e.g. `(2, 1)` → `"B3"`.
fn a1(row: u32, col: u32) -> String {
    format!("{}{}", col_name(col), row + 1)
}

/// One tape entry: raw user input destined for a cell.
type Op = (CellAddr, String);

/// Random tape over a layered sheet: column A holds data, column B holds
/// fill-down sliding windows over A (batchable runs), column C scalar
/// transforms and chains over B, column D cycle pairs, the rest mixed
/// aggregates and error producers.
fn tape(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops: Vec<Op> = Vec::new();
    while ops.len() < len {
        match rng.gen_range(0..100u32) {
            // Data pokes: these reseed whole fill-down runs at once, which
            // is exactly when wave 1 is wide enough to batch.
            0..=29 => {
                let row = rng.gen_range(0..ROWS);
                let n: i64 = rng.gen_range(-50..50);
                ops.push((CellAddr::new(row, 0), format!("{n}")));
            }
            // A fill-down run: same shape, consecutive rows, one column.
            30..=49 => {
                let w = rng.gen_range(2..6u32);
                let start = rng.gen_range(w..ROWS / 2);
                let run = rng.gen_range(16..32u32).min(ROWS - start);
                for row in start..start + run {
                    let src = format!("=SUM({}:{})", a1(row - w + 1, 0), a1(row, 0));
                    ops.push((CellAddr::new(row, 1), src));
                }
            }
            // Scalar layer over the windows, occasionally chained.
            50..=64 => {
                let row = rng.gen_range(1..ROWS);
                let src = if rng.gen_bool(0.4) {
                    format!("={}+{}", a1(row, 1), a1(row - 1, 2))
                } else {
                    format!("={}*2-1", a1(row, 1))
                };
                ops.push((CellAddr::new(row, 2), src));
            }
            // Cycle pair (or a self-loop) in column D.
            65..=74 => {
                let r1 = rng.gen_range(0..ROWS);
                let r2 = rng.gen_range(0..ROWS);
                if r1 == r2 {
                    ops.push((CellAddr::new(r1, 3), format!("={}*1", a1(r1, 3))));
                } else {
                    ops.push((CellAddr::new(r1, 3), format!("={}+1", a1(r2, 3))));
                    ops.push((CellAddr::new(r2, 3), format!("={}+1", a1(r1, 3))));
                }
            }
            // Error producers and readers of errors.
            75..=84 => {
                let row = rng.gen_range(0..ROWS);
                let src = match rng.gen_range(0..3u32) {
                    0 => "=1/0".to_string(),
                    1 => format!("={}/0", a1(row, 0)),
                    _ => format!("={}+1", a1(row, 4)),
                };
                ops.push((CellAddr::new(row, 4), src));
            }
            // Mixed aggregates across the layered columns.
            85..=94 => {
                let row = rng.gen_range(1..ROWS);
                let f = ["SUM", "AVERAGE", "COUNT", "COUNTA"][rng.gen_range(0..4)];
                let src = format!("={f}(A1:{})", a1(row, rng.gen_range(1..4)));
                ops.push((CellAddr::new(row, rng.gen_range(5..COLS)), src));
            }
            // Clears.
            _ => {
                let row = rng.gen_range(0..ROWS);
                let col = rng.gen_range(0..COLS);
                ops.push((CellAddr::new(row, col), String::new()));
            }
        }
    }
    ops.truncate(len);
    ops
}

fn snapshot(e: &SheetEngine) -> Vec<(CellAddr, Cell)> {
    e.get_cells(Rect::new(0, 0, ROWS + 4, COLS + 4))
}

#[test]
fn random_tapes_match_scalar_oracle() {
    for seed in 0..4u64 {
        let mut oracle = SheetEngine::new();
        oracle.set_scalar_recompute(true);
        let mut wave = SheetEngine::new();
        let ops = tape(0xFA12_0001u64 + seed, 260);
        for (step, (addr, input)) in ops.iter().enumerate() {
            oracle.update_cell(*addr, input).expect("oracle update");
            wave.update_cell(*addr, input).expect("wave update");
            // Full-snapshot comparison is O(cells); sample it.
            if step % 20 == 19 {
                assert_eq!(
                    snapshot(&wave),
                    snapshot(&oracle),
                    "seed {seed} step {step}: snapshot diverged"
                );
            }
        }
        // A bulk recompute-everything pass must agree too (this is the
        // path the bench drives: maximally wide waves).
        oracle.recompute_all().expect("oracle recompute_all");
        wave.recompute_all().expect("wave recompute_all");
        assert_eq!(
            snapshot(&wave),
            snapshot(&oracle),
            "seed {seed}: bulk diverged"
        );
    }
}

#[test]
fn wide_scalar_wave_matches_scalar_oracle() {
    // 200 same-wave scalar formulas (no batchable shape) drive the wide
    // per-cell path; results must match the scalar walk exactly.
    let mut oracle = SheetEngine::new();
    oracle.set_scalar_recompute(true);
    let mut wave = SheetEngine::new();
    for r in 0..200u32 {
        let data = format!("{}.5", r % 17);
        let formula = format!("=A{}*3+1", r + 1);
        for e in [&mut oracle, &mut wave] {
            e.update_cell(CellAddr::new(r, 0), &data).unwrap();
            e.update_cell(CellAddr::new(r, 1), &formula).unwrap();
        }
    }
    oracle.recompute_all().unwrap();
    wave.recompute_all().unwrap();
    assert_eq!(
        wave.get_cells(Rect::new(0, 0, 220, 4)),
        oracle.get_cells(Rect::new(0, 0, 220, 4)),
        "wide wave diverged"
    );
}
