//! The benchmark's own checks: the request stream is a pure function of
//! the seed, and a short run emits every metric `BENCHMARK.json` names,
//! with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build simulates too slowly for the smoke runs).

use perfbench::stream::{open_schedule, setup_requests, workload, ClosedStream, Req, WORKLOADS};
use std::path::Path;
use std::process::Command;

/// Everything a run sends under `seed`: setup requests, the first
/// stretch of every closed stream and the open schedule.
fn all_requests(seed: u64) -> Vec<Req> {
    let mut reqs = Vec::new();
    for wl in WORKLOADS {
        reqs.extend(setup_requests(wl, seed));
        reqs.extend(ClosedStream::new(wl, seed).take(300));
        reqs.extend(open_schedule(wl, seed, 10.0));
    }
    reqs
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let a = all_requests(7);
    assert_eq!(
        a,
        all_requests(7),
        "a seed must regenerate its stream exactly"
    );
    let b = all_requests(8);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
    }
    assert_ne!(
        a.iter().map(|r| r.seed).collect::<Vec<_>>(),
        b.iter().map(|r| r.seed).collect::<Vec<_>>(),
        "stimulus seeds must change with the seed"
    );
    let mixed = workload("mixed_open").expect("mixed_open exists");
    let (p, q) = (open_schedule(mixed, 7, 10.0), open_schedule(mixed, 8, 10.0));
    assert_ne!(
        p.iter().map(|r| r.at).collect::<Vec<_>>(),
        q.iter().map(|r| r.at).collect::<Vec<_>>(),
        "arrival times must change with the seed"
    );
    assert_ne!(
        p.iter().map(|r| (r.design, r.cycles)).collect::<Vec<_>>(),
        q.iter().map(|r| (r.design, r.cycles)).collect::<Vec<_>>(),
        "designs and cycle counts must change with the seed"
    );
}

#[test]
fn open_schedule_is_uniform_and_in_window() {
    let mixed = workload("mixed_open").expect("mixed_open exists");
    let s = open_schedule(mixed, 3, 10.0);
    assert_eq!(s.len(), 400, "40 requests/s over 10 s");
    assert!(
        s.windows(2).all(|w| w[0].at <= w[1].at),
        "arrivals in order"
    );
    assert!(s
        .iter()
        .all(|r| r.at.expect("scheduled").as_secs_f64() < 10.0));
    assert!(s.iter().all(|r| (256..=4096).contains(&r.cycles)));
    for d in mixed.designs {
        assert_eq!(s.iter().filter(|r| r.design == *d).count(), 100, "{d}");
    }
    // Stratified: the k-th shortest request falls in the k-th of 400
    // equal slices of the 3841 possible lengths.
    let mut cycles: Vec<u64> = s.iter().map(|r| r.cycles - 256).collect();
    cycles.sort_unstable();
    for (k, c) in (0u64..).zip(cycles) {
        assert!(
            (k * 3841 / 400..=((k + 1) * 3841).div_ceil(400)).contains(&c),
            "slice {k}: {c}"
        );
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn smoke(workload: &str, trace: u8) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&root)
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    stdout
}

#[test]
fn smoke_runs_emit_every_declared_metric_with_its_unit() {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(&json, list);
        assert!(!metrics.is_empty(), "{list} is empty");
        for wl in ["small_closed", "mixed_open"] {
            let stdout = smoke(wl, trace);
            assert!(stdout.starts_with("machine: nproc="), "machine note first");
            let last = stdout.lines().last().expect("output");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{wl} trace={trace}: no {name} in {last}"));
                let entry = &last[at + key.len()..];
                let entry = &entry[..=entry.find('}').expect("entry closes")];
                let (value, tail) = entry.split_once(',').expect("value, unit");
                let value: f64 = value.parse().expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                assert_eq!(
                    tail,
                    format!(" \"unit\": \"{unit}\"}}"),
                    "{wl}: {name} unit"
                );
            }
            let count = last.matches("\"unit\": ").count();
            assert_eq!(
                count,
                metrics.len(),
                "{wl} trace={trace}: exactly the {list} metrics"
            );
        }
    }
}
