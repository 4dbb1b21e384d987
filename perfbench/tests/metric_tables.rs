//! The metric tables the program prints must match the ones declared in
//! the repository's `BENCHMARK.json`, name for name and unit for unit, in
//! the same order.

use perfbench::layers::{END_TO_END, PER_LAYER};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, read with
/// plain string scanning (the file is small and machine-written).
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let list = &json[start..];
    let list = &list[..list.find(']').expect("list is closed")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closed");
        rest[open..open + close].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn pairs(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    assert_eq!(declared(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(&PER_LAYER));
}
