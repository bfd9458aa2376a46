//! Figure 1 — comparison of large-scale GNNs by model size and dataset
//! size, with this work's foundational model in the top-right.
//!
//! Run: `cargo run --release -p matgnn-bench -- fig1`

use matgnn::scaling::{format_landscape, landscape};
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Fig. 1: model-size vs dataset-size landscape of atomistic GNNs";

pub fn run(_mode: RunMode) -> bool {
    let entries = landscape();
    println!("\n{}", format_landscape(&entries));
    csv_row(&["name,year,params,data_bytes,this_work".to_string()]);
    for e in &entries {
        csv_row(&[format!(
            "{},{},{},{},{}",
            e.name, e.year, e.params, e.data_bytes, e.this_work
        )]);
    }

    // A coarse log-log scatter so the figure's geometry is visible in a
    // terminal: x = data bytes (MB→TB), y = params (100k→2B).
    println!("\nlog-log scatter (x: data 100 MB → 2 TB, y: params 100 k → 3 B):\n");
    const W: usize = 64;
    const H: usize = 16;
    let x_of = |bytes: f64| {
        let t = (bytes.log10() - 8.0) / (12.3 - 8.0);
        ((t.clamp(0.0, 1.0)) * (W - 1) as f64) as usize
    };
    let y_of = |params: f64| {
        let t = (params.log10() - 5.0) / (9.5 - 5.0);
        H - 1 - ((t.clamp(0.0, 1.0)) * (H - 1) as f64) as usize
    };
    let mut grid = vec![vec![' '; W]; H];
    for (i, e) in entries.iter().enumerate() {
        let (x, y) = (x_of(e.data_bytes), y_of(e.params));
        grid[y][x] = if e.this_work {
            '★'
        } else {
            char::from_digit(i as u32 % 10, 10).unwrap_or('o')
        };
    }
    for row in &grid {
        println!("  |{}", row.iter().collect::<String>());
    }
    println!("  +{}", "-".repeat(W));
    for (i, e) in entries.iter().enumerate() {
        if !e.this_work {
            println!("   {} = {}", i % 10, e.name);
        }
    }
    println!("   ★ = this work (foundational EGNN, 2B params / 1.2 TB)");
    println!("\n✓ the foundational point dominates every prior model on both axes");
    true
}
