//! Table I — summary of the data sources of the aggregated dataset.
//!
//! Generates the synthetic aggregate at the configured scale, counts
//! nodes/edges/graphs/bytes per source, and prints them side by side with
//! the paper's reported values.
//!
//! Run: `cargo run --release -p matgnn-bench -- table1 [--quick|--full]`

use matgnn::data::{Dataset, SourceKind};
use matgnn::tensor::format_bytes;
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Table I: summary of the data sources of the aggregated dataset";

pub fn run(mode: RunMode) -> bool {
    let cfg = mode.experiment_config();

    let n_graphs = cfg.units.aggregate_graphs();
    println!("\ngenerating synthetic aggregate of {n_graphs} graphs (≡ 1.2 paper-TB)…\n");
    let ds = Dataset::generate_aggregate(n_graphs, cfg.seed, &cfg.generator());
    let stats = ds.stats();

    println!(
        "{:<12} | {:>9} {:>11} {:>9} {:>10} | {:>13} {:>15} {:>11} {:>8}",
        "", "ours:", "", "", "", "paper:", "", "", ""
    );
    println!(
        "{:<12} | {:>9} {:>11} {:>9} {:>10} | {:>13} {:>15} {:>11} {:>8}",
        "Data Source",
        "# Nodes",
        "# Edges",
        "# Graphs",
        "Size",
        "# Nodes",
        "# Edges",
        "# Graphs",
        "Size"
    );
    println!("{}", "-".repeat(120));
    csv_row(&[
        "source,nodes,edges,graphs,bytes,paper_nodes,paper_edges,paper_graphs,paper_bytes"
            .to_string(),
    ]);
    for (kind, s) in &stats.per_source {
        println!(
            "{:<12} | {:>9} {:>11} {:>9} {:>10} | {:>13} {:>15} {:>11} {:>7}GB",
            kind.name(),
            s.nodes,
            s.edges,
            s.graphs,
            format_bytes(s.bytes),
            kind.paper_nodes(),
            kind.paper_edges(),
            kind.paper_graphs(),
            kind.paper_bytes() / 1_000_000_000,
        );
        csv_row(&[format!(
            "{},{},{},{},{},{},{},{},{}",
            kind.name(),
            s.nodes,
            s.edges,
            s.graphs,
            s.bytes,
            kind.paper_nodes(),
            kind.paper_edges(),
            kind.paper_graphs(),
            kind.paper_bytes()
        )]);
    }
    let total = stats.total();
    println!("{}", "-".repeat(120));
    println!(
        "{:<12} | {:>9} {:>11} {:>9} {:>10} |",
        "TOTAL",
        total.nodes,
        total.edges,
        total.graphs,
        format_bytes(total.bytes),
    );

    // Shape checks mirrored from the paper's table.
    println!("\nshape checks vs paper:");
    let share = |k: SourceKind| {
        let ours = stats
            .per_source
            .iter()
            .find(|(kk, _)| *kk == k)
            .expect("source")
            .1;
        (
            ours.graphs as f64 / total.graphs as f64,
            k.paper_graphs() as f64
                / SourceKind::ALL
                    .iter()
                    .map(|s| s.paper_graphs() as f64)
                    .sum::<f64>(),
        )
    };
    for k in SourceKind::ALL {
        let (ours, paper) = share(k);
        println!(
            "  {:<12} graph share: ours {:>5.1}%, paper {:>5.1}%",
            k.name(),
            100.0 * ours,
            100.0 * paper
        );
    }
    let (oc_ours, _) = share(SourceKind::Oc2020);
    assert!(
        oc_ours > 0.4,
        "OC2020 must dominate the aggregate as in the paper"
    );
    println!("\n✓ per-source graph proportions match Table I by construction");
    true
}
