//! A tiny-size run of every workload, untraced and traced: each must
//! answer correctly and print exactly the metrics `BENCHMARK.json` lists,
//! every one a finite number.

use perfbench::{run, Spec, Workload};

/// The `name`s of one metric list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} list"));
    let list = &text[start..];
    let list = &list[..list.find(']').expect("unterminated list")];
    list.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or_default()
                .to_owned()
        })
        .collect()
}

fn tiny(w: Workload) -> Spec {
    Spec {
        depth: 3,
        keys: 600,
        stacks: 1,
        write_ops: 300,
        rounds: 1,
        ..w.spec()
    }
}

#[test]
fn every_listed_metric_is_printed() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for w in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let report = run(w, &tiny(w), 1, 0.6, trace);
            assert!(
                report.correct(),
                "{} trace={trace}: {:?}",
                w.name(),
                report.tally
            );
            assert_eq!(report.tally.failed, 0, "{} trace={trace}", w.name());
            let mut got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            got.sort_unstable();
            let mut want: Vec<&str> = want.iter().map(String::as_str).collect();
            want.sort_unstable();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            for m in &report.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} trace={trace}: {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            let json = report.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}
