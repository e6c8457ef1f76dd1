//! What a run prints: the host fingerprint, every end-to-end metric by
//! name and unit, the correctness gates, and the one-line JSON result.

use crate::layers::Layers;
use crate::stats::{median, median_of, percentile, trimmed_mean, TRIM};
use crate::tape::Kind;
use crate::target::Part;
use crate::workloads::Outcome;

/// A named, unit-carrying number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Print the host fingerprint that goes with every result.
pub fn host(workload: &str, seed: u64, seconds: f64, trace: bool, rustc: &str, git_rev: &str) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# run {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"host\": {{\"cores\": {cores}, \"rustc\": {}, \"profile\": \"{profile}\", \"git_rev\": {}}}}}",
        json_str(workload),
        json_str(rustc),
        json_str(git_rev)
    );
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A percentile line: the value, or why it is not reported.
fn pct_line(name: &str, unit: &str, scale: f64, sorted: &[f64], p: f64) {
    let shown = if p == 50.0 {
        median(sorted)
    } else {
        percentile(sorted, p)
    };
    match shown {
        Some(v) => println!(
            "{name:<22} {:>14.3} {unit:<8} n={}",
            v * scale,
            sorted.len()
        ),
        None if sorted.is_empty() => println!(
            "{name:<22} {:>14} {unit:<8} n=0, no such action on this workload",
            "n/a"
        ),
        None => println!(
            "{name:<22} {:>14} {unit:<8} n={}, fewer than 10 samples beyond p{p}",
            "n/a",
            sorted.len()
        ),
    }
}

/// A metric only the reopen workload (import, checkpoint, restart, full
/// scan) would measure; this benchmark does not include that workload.
fn not_built(name: &str, unit: &str) {
    println!(
        "{name:<22} {:>14} {unit:<8} measured only by a reopen workload, which this benchmark leaves out",
        "n/a"
    );
}

fn value_line(name: &str, unit: &str, values: &[f64], what: &str) {
    match median_of(values) {
        Some(v) => println!(
            "{name:<22} {v:>14.3} {unit:<8} median of {} {what}: {}",
            values.len(),
            values
                .iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        None => println!(
            "{name:<22} {:>14} {unit:<8} not measured on this workload",
            "n/a"
        ),
    }
}

/// The gated end-to-end metrics, in `BENCHMARK.json` order. The
/// latencies are trimmed means ([`trimmed_mean`]); their p50 and tail
/// are printed beside them. `reopen_s` is printed but not gated:
/// memory-bound image decoding swings 15–25% between runs on a shared
/// host.
pub const GATED: [(&str, &str); 6] = [
    ("actions_per_s", "ops/s"),
    ("fetch_trimmed_mean_us", "us"),
    ("set_trimmed_mean_us", "us"),
    ("insert_row_trimmed_mean_us", "us"),
    ("disk_bytes_per_cell", "B"),
    ("setup_s", "s"),
];

/// What `insert_row_*` times: one-row structural edits. Recalc
/// alternates inserts and deletes of one row at the same spots, each
/// shifting ~60k formula references; pooling them doubles the samples.
/// Interactive only inserts.
const STRUCTURAL: [Part; 2] = [Part::Action(Kind::InsertRow), Part::Action(Kind::DeleteRow)];

/// Print all sixteen end-to-end metrics; return the gated ones.
pub fn end_to_end(workload: &str, o: &Outcome) -> Vec<Metric> {
    let fetch = o.latencies(&[Part::Action(Kind::Fetch)]);
    let set = o.latencies(&[Part::Action(Kind::Set)]);
    let structural = o.latencies(&STRUCTURAL);
    let cascade = o.latencies(&[Part::Action(Kind::Cascade)]);
    let actions_per_s = o.actions_per_s();
    let failed_frac = o.failed() as f64 / o.attempted().max(1) as f64;

    println!("# end-to-end ({workload}, tracing off)");
    value_line("setup_s", "s", &o.setup_s, "set-ups");
    println!(
        "{:<22} {actions_per_s:>14.3} {:<8} {} actions in {:.3} s",
        "actions_per_s",
        "ops/s",
        o.attempted(),
        o.elapsed_s
    );
    pct_line("fetch_p50_us", "us", 1.0, &fetch, 50.0);
    pct_line("fetch_p99_us", "us", 1.0, &fetch, 99.0);
    pct_line("set_p50_us", "us", 1.0, &set, 50.0);
    pct_line("set_p99_us", "us", 1.0, &set, 99.0);
    pct_line("insert_row_p50_us", "us", 1.0, &structural, 50.0);
    pct_line("insert_row_p99_us", "us", 1.0, &structural, 99.0);
    pct_line("cascade_p50_ms", "ms", 1e-3, &cascade, 50.0);
    pct_line("cascade_p90_ms", "ms", 1e-3, &cascade, 90.0);
    not_built("import_cells_per_s", "cells/s");
    value_line("checkpoint_s", "s", &o.checkpoint_s, "checkpoints");
    value_line("reopen_s", "s", &o.reopen_s, "restarts");
    not_built("scan_cells_per_s", "cells/s");
    value_line(
        "disk_bytes_per_cell",
        "B",
        &o.disk_bytes_per_cell,
        "restarts",
    );
    println!(
        "{:<22} {failed_frac:>14.6} {:<8} {} failed of {} attempted",
        "failed_frac",
        "ratio",
        o.failed(),
        o.attempted()
    );

    let mut gated_means = Vec::new();
    for (name, sorted) in [
        ("fetch", &fetch),
        ("set", &set),
        ("insert_row", &structural),
    ] {
        let v = trimmed_mean(sorted).unwrap_or(f64::NAN);
        println!(
            "# gated {name}_trimmed_mean_us {v:.3} us, n={}, mean without the lowest and highest {:.0}%",
            sorted.len(),
            TRIM * 100.0
        );
        gated_means.push(v);
    }
    let values = [
        actions_per_s,
        gated_means[0],
        gated_means[1],
        gated_means[2],
        median_of(&o.disk_bytes_per_cell).unwrap_or(f64::NAN),
        median_of(&o.setup_s).unwrap_or(f64::NAN),
    ];
    GATED
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

/// Print the gates and the final JSON line; return whether every gate
/// held. With `layers`, the JSON carries the per-layer metrics.
pub fn finish(o: &Outcome, e2e: &[Metric], layers: Option<&Layers>) -> bool {
    let mut correct = true;
    println!("# correctness gates");
    let mut gate = |name: &str, ok: bool, detail: &str| {
        correct &= ok;
        println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    };
    for g in &o.gates {
        gate(&g.name, g.ok, &g.detail);
    }
    if let Some(l) = layers {
        for g in &l.gates {
            gate(&g.name, g.ok, &g.detail);
        }
    }
    for r in &o.recorders {
        if let Some(e) = &r.first_error {
            println!("# first error on caller {}: {e}", r.client);
        }
    }
    let metrics = match layers {
        Some(l) => &l.metrics,
        None => e2e,
    };
    for m in metrics {
        if !m.value.is_finite() {
            gate(
                &format!("finite.{}", m.name),
                false,
                "metric is not a finite number",
            );
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    let (attempted, failed) = match layers {
        Some(l) => (o.attempted() + l.attempted, o.failed() + l.failed),
        None => (o.attempted(), o.failed()),
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    correct
}
