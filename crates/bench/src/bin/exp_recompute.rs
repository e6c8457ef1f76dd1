//! Recompute-cascade benchmark: the wave/batch evaluation pipeline vs the
//! sequential per-cell tree walk, over a fill-down corpus shaped like the
//! paper's weather/billing sheets.
//!
//! Corpus (`DS_RECOMPUTE_ROWS` data rows, default 50 000 → ≈100k
//! formulas):
//!
//! * column A — numeric data;
//! * column B — a fill-down sliding aggregate `=SUM(A{r-63}:A{r})` on
//!   every row from 64 down (one shape, one column: the vectorized batch
//!   sweep's target);
//! * column C — `=B{r}*2-1` (a second topological wave of plain scalar
//!   walks);
//! * column D — a 2 000-cell chain `=D{r-1}+1` (depth: every wave holds
//!   one cell, the pipeline's worst case).
//!
//! The run times a full cascade (`recompute_all`) under the retained
//! scalar oracle, then under the wave pipeline, verifies the wave output
//! is **cell-for-cell identical** to the oracle, and — at full scale —
//! asserts the acceptance bound: wave ≥ 3× faster than scalar. The
//! speedup is algorithmic (the batch sweep answers a whole fill-down run
//! from one bulk fetch over dense arrays instead of per-cell tree walks
//! through the locked LRU cache); both paths run on one thread.
//!
//! Results go to stdout and `BENCH_recompute.json` (override with
//! `DS_RECOMPUTE_OUT`).

use std::time::Instant;

use dataspread_engine::SheetEngine;
use dataspread_grid::{Cell, CellAddr, Rect};

const WINDOW: u32 = 64;
const CHAIN: u32 = 2_000;

fn rows_from_env() -> u32 {
    std::env::var("DS_RECOMPUTE_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000)
}

/// Deterministic data value for row `r` (integer-derived so the text
/// round-trip through `update_cell` is exact).
fn data_value(r: u32) -> f64 {
    ((r.wrapping_mul(2_654_435_761)) % 4_000) as f64 / 4.0
}

/// Build the corpus. Formulas are laid down dependency-first so each
/// registration evaluates exactly once during setup.
fn build(rows: u32) -> (SheetEngine, u64) {
    let mut e = SheetEngine::new();
    for r in 0..rows {
        e.update_cell(CellAddr::new(r, 0), &format!("{}", data_value(r)))
            .expect("data");
    }
    let mut formulas = 0u64;
    for r in WINDOW - 1..rows {
        let src = format!("=SUM(A{}:A{})", r + 2 - WINDOW, r + 1);
        e.update_cell(CellAddr::new(r, 1), &src).expect("window");
        formulas += 1;
    }
    for r in 0..rows {
        e.update_cell(CellAddr::new(r, 2), &format!("=B{}*2-1", r + 1))
            .expect("scalar");
        formulas += 1;
    }
    e.update_cell(CellAddr::new(0, 3), "1").expect("chain base");
    for r in 1..CHAIN.min(rows) {
        e.update_cell(CellAddr::new(r, 3), &format!("=D{r}+1"))
            .expect("chain");
        formulas += 1;
    }
    (e, formulas)
}

fn snapshot(e: &SheetEngine, rows: u32) -> Vec<(CellAddr, Cell)> {
    e.get_cells(Rect::new(0, 0, rows + 2, 6))
}

fn main() {
    let rows = rows_from_env();
    let out_path =
        std::env::var("DS_RECOMPUTE_OUT").unwrap_or_else(|_| "BENCH_recompute.json".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let full_scale = rows >= 50_000;

    println!("Recompute-cascade benchmark ({rows} data rows, {cores} cores)");
    let (mut engine, formulas) = build(rows);
    println!("corpus: {formulas} formulas\n");

    // The sequential oracle: one tree walk per cell in Kahn order.
    engine.set_scalar_recompute(true);
    let t = Instant::now();
    engine.recompute_all().expect("scalar recompute");
    let scalar_ms = t.elapsed().as_secs_f64() * 1e3;
    let want = snapshot(&engine, rows);
    println!("{:>18} | {:>10} | {:>8}", "mode", "cascade ms", "speedup");
    println!(
        "{:>18} | {:>10.1} | {:>7.2}x",
        "scalar oracle", scalar_ms, 1.0
    );

    engine.set_scalar_recompute(false);
    let start = Instant::now();
    engine.recompute_all().expect("wave recompute");
    let wave_ms = start.elapsed().as_secs_f64() * 1e3;
    let speedup = scalar_ms / wave_ms;
    assert_eq!(
        snapshot(&engine, rows),
        want,
        "wave output diverged from the scalar oracle"
    );
    println!("{:>18} | {:>10.1} | {:>7.2}x", "waves", wave_ms, speedup);

    let json = format!(
        "{{\n  \"bench\": \"recompute\",\n  \"cores\": {cores},\n  \"rows\": {rows},\n  \
         \"formulas\": {formulas},\n  \"window\": {WINDOW},\n  \"scalar_ms\": {scalar_ms:.1},\n  \
         \"wave_ms\": {wave_ms:.1},\n  \"speedup\": {speedup:.2},\n  \
         \"identical_to_oracle\": true\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");

    // Acceptance bound, armed at full scale only: wave ≥ 3× faster than
    // the scalar oracle, output already proven identical above.
    if full_scale {
        assert!(
            speedup >= 3.0,
            "wave/batch cascade speedup {speedup:.2}x < 3x over the scalar oracle"
        );
    }
    println!(
        "\npaper context: a cascade touching every dependent of an edit is the\n\
         spreadsheet cost model's worst case; evaluating the dependency DAG in\n\
         topological waves lets same-shape fill-down runs collapse into one\n\
         vectorized sweep, while deterministic wave-order write-back keeps the\n\
         result bit-identical to the sequential walk."
    );
}
