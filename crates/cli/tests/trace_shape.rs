//! Causal-shape invariance: a real solve recorded at 1 and at 8 threads
//! must reconstruct to the *same* span tree once the `par.*` scaffolding
//! is elided. Lane counts and timings differ with the thread count; the
//! causal structure of the solve may not.
//!
//! Runs only in telemetry builds (`--features telemetry`) — a noop build
//! records nothing, so the test degrades to a skip, keeping the default
//! tier-1 suite byte-identical to a world without the recorder.

use std::sync::{Mutex, PoisonError};

use cloudalloc_cli::{run, trace::TraceForest, Parsed};

/// The telemetry sink is process-global; tests that arm it must not
/// overlap. A test that panics while holding the lock poisons it; the
/// other test takes it anyway so that one failure reports as one.
static SINK: Mutex<()> = Mutex::new(());

fn parse(words: &[&str]) -> Parsed {
    Parsed::parse(words.iter().map(|s| s.to_string())).unwrap()
}

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("cloudalloc-trace-shape");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// The fan-out's causal wiring, exercised without the core-count clamp
/// the CLI applies (on a one-core machine `solve --threads 8` runs
/// serially): `run_parallel` called directly must record every worker
/// lane as a child of the dispatch span — including lanes on *other*
/// threads — and the dispatch itself as a child of the enclosing span.
#[test]
fn parallel_lanes_nest_under_their_dispatch_across_threads() {
    if !cloudalloc_telemetry::ENABLED {
        return; // noop build: nothing is recorded
    }
    let _lock = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let jsonl = temp_path("dispatch.jsonl");
    let _ = std::fs::remove_file(&jsonl);
    cloudalloc_telemetry::init_jsonl(&jsonl).unwrap();
    {
        let _root = cloudalloc_telemetry::span!("testroot");
        let out = cloudalloc_core::par::run_parallel(8, 4, |i| i * i);
        assert_eq!(out, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }
    cloudalloc_telemetry::close_sink();

    let forest = TraceForest::from_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
    assert_eq!(forest.orphans, 0, "cross-thread lanes lost their parent link");
    let dispatch =
        forest.nodes.iter().position(|n| n.name == "par.dispatch").expect("dispatch span recorded");
    let lanes: Vec<_> = forest.children[dispatch]
        .iter()
        .map(|&c| &forest.nodes[c])
        .filter(|n| n.name == "par.lane")
        .collect();
    assert_eq!(lanes.len(), 4, "every worker lane must be a child of the dispatch");
    let tids: std::collections::BTreeSet<u64> = lanes.iter().map(|n| n.tid).collect();
    assert!(tids.len() > 1, "spawned lanes must carry their own lane ids");
    // The dispatch nests under the span that was open at the call site,
    // and the critical-path analysis attributes it there.
    let root = forest.roots[0];
    assert_eq!(forest.nodes[root].name, "testroot");
    let sites = forest.critical_paths();
    assert_eq!(sites.len(), 1);
    assert_eq!(sites[0].site, "testroot");
    assert_eq!(sites[0].lanes, 4);
}

#[test]
fn solve_trace_shape_is_thread_count_invariant() {
    if !cloudalloc_telemetry::ENABLED {
        return; // noop build: nothing is recorded
    }
    let _lock = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let sys_path = temp_path("sys.json");
    run(&parse(&[
        "generate",
        "--clients",
        "24",
        "--preset",
        "paper",
        "--seed",
        "7",
        "--out",
        &sys_path,
    ]))
    .unwrap();

    let mut shapes = Vec::new();
    let mut reports = Vec::new();
    for threads in ["1", "8"] {
        let jsonl = temp_path(&format!("solve_t{threads}.jsonl"));
        let _ = std::fs::remove_file(&jsonl);
        let report = run(&parse(&[
            "solve",
            "--system",
            &sys_path,
            "--seed",
            "3",
            "--init",
            "4",
            "--threads",
            threads,
            "--telemetry-out",
            &jsonl,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let forest = TraceForest::from_jsonl(&text).unwrap();
        assert_eq!(forest.orphans, 0, "broken parent links at {threads} threads");
        assert_eq!(forest.unclosed, 0, "unclosed spans at {threads} threads");
        // The serial path never opens par.* wrappers, the parallel path
        // nests every lane under its dispatch — elide both to compare.
        shapes.push(forest.canonical_shape(&["par."]));
        reports.push(report);
    }
    assert_eq!(shapes[0], shapes[1], "span-tree causal shape must not depend on the thread count");
    // And the solver output itself stays bit-identical, recorder running.
    let strip = |r: &str| {
        r.lines().filter(|l| !l.starts_with("telemetry written")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(strip(&reports[0]), strip(&reports[1]));
}
