//! Cross-thread span attribution from pool workers: spans emitted
//! inside `parallel_for` chunks must carry the *submitting* thread's
//! telemetry rank, even when a shared pool worker executes the chunk.
//! Own integration-test binary: telemetry enable/disable is
//! process-global state.

use std::sync::Barrier;

use matgnn_telemetry as telemetry;
use telemetry::json::{self, Json};

#[test]
fn pool_chunks_attribute_to_submitter_rank() {
    let dir = std::env::temp_dir().join(format!(
        "matgnn-pool-telemetry-{pid}",
        pid = std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    telemetry::init(&dir).unwrap();
    let _rt = matgnn_tensor::Runtime::current().with_threads(2).enter();
    telemetry::set_rank(5);

    // A two-party barrier forces the two chunks onto two distinct
    // threads (the submitter and one pool worker): neither chunk can
    // finish until both have started.
    let rendezvous = Barrier::new(2);
    matgnn_tensor::pool::parallel_for(2, |i| {
        let _s = telemetry::span(if i == 0 { "chunk_a" } else { "chunk_b" });
        rendezvous.wait();
    });

    telemetry::clear_rank();
    telemetry::shutdown();

    let lines = std::fs::read_to_string(dir.join("events-rank5.jsonl")).unwrap();
    let spans: Vec<Json> = lines
        .lines()
        .map(|l| {
            json::validate_event_line(l).unwrap_or_else(|e| panic!("{e}: {l}"));
            json::parse(l).unwrap()
        })
        .filter(|v| {
            matches!(
                v.get("name").and_then(Json::as_str),
                Some("chunk_a" | "chunk_b")
            )
        })
        .collect();
    assert_eq!(spans.len(), 2, "both chunk spans in the rank-5 log");
    for span in &spans {
        assert_eq!(span.get("rank").unwrap().as_num(), Some(5.0));
    }
    // The barrier guarantees the chunks ran on two different threads,
    // yet both attributed to the same rank file.
    let tids: Vec<f64> = spans
        .iter()
        .map(|s| s.get("tid").unwrap().as_num().unwrap())
        .collect();
    assert_ne!(
        tids[0], tids[1],
        "chunks should have run on distinct threads"
    );
}
