//! `BENCHMARK.json` (the driver's contract) and the metric tables in
//! `src/metrics.rs` (what the program prints) must say the same thing.

use dta_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// The objects of the JSON array that follows `"key": [`, as raw text.
fn array_objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("object closes")])
        .collect()
}

/// The string or number value of `"field":` in a flat JSON object.
fn field<'a>(object: &'a str, name: &str) -> &'a str {
    let at = object
        .find(&format!("\"{name}\":"))
        .unwrap_or_else(|| panic!("no {name} in {object}"));
    let v = object[at + name.len() + 3..].trim_start();
    match v.strip_prefix('"') {
        Some(s) => &s[..s.find('"').expect("string closes")],
        None => v.split([',', '\n']).next().unwrap().trim(),
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");

    let workloads = array_objects(&json, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (object, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(field(object, "name"), *name);
        assert_eq!(field(object, "why"), *why);
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = array_objects(&json, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (object, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(object, "name"), m.name);
        assert_eq!(field(object, "unit"), m.unit);
        assert_eq!(field(object, "better"), m.better.as_str());
        assert_eq!(
            field(object, "bound").parse::<f64>().unwrap(),
            m.bound.unwrap()
        );
    }

    let layers = array_objects(&json, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (object, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(object, "name"), m.name);
        assert_eq!(field(object, "unit"), m.unit);
        assert_eq!(field(object, "better"), m.better.as_str());
        assert!(
            !object.contains("bound"),
            "per-layer metrics carry no bound"
        );
    }
}
