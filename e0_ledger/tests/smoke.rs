//! Smoke test: the benchmark runs end to end on a few jobs per workload
//! and both passes, prints every metric `BENCHMARK.json` declares for
//! every workload it declares, passes its own correctness gate, and
//! writes an `--out` file that parses as JSON.

use genfv_obs::{parse_json, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

fn names(bench: &Json, key: &str) -> BTreeSet<String> {
    let list = bench.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key} is a list"));
    list.iter()
        .map(|entry| {
            entry.get("name").and_then(Json::as_str).expect("entry has a name").to_string()
        })
        .collect()
}

#[test]
fn smoke_run_prints_every_declared_metric() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let bench = parse_json(&declared).expect("BENCHMARK.json parses");
    let workloads = names(&bench, "workloads");
    let metrics: BTreeSet<String> =
        names(&bench, "end_to_end").union(&names(&bench, "per_layer")).cloned().collect();

    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("e0_ledger_smoke.json");
    let run = Command::new(env!("CARGO_BIN_EXE_e0_ledger"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("e0_ledger runs");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(run.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&run.stderr));

    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().expect("output ends with a summary line");
    let mut printed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 4, "`<workload> <metric> <value> <unit>`: {line}");
        fields[2].parse::<f64>().unwrap_or_else(|e| panic!("{line}: {e}"));
        printed.entry(fields[0].to_string()).or_default().insert(fields[1].to_string());
    }
    assert_eq!(printed.keys().cloned().collect::<BTreeSet<_>>(), workloads);
    for (workload, got) in &printed {
        assert_eq!(got, &metrics, "{workload} prints exactly the declared metrics");
    }

    let summary = parse_json(last).expect("the last line is JSON");
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)), "{last}");
    assert_eq!(summary.get("failed").and_then(Json::as_num), Some(0.0), "{last}");
    let written = std::fs::read_to_string(&out).expect("--out was written");
    parse_json(&written).expect("--out parses");
}
