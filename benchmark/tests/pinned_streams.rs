//! The generated report stream of every workload, pinned for seed 1.
//!
//! A workload is its inputs. If a default in `ScenarioSpec`, `TrafficMix`,
//! `ServiceConfig` or `TranslatorConfig` changes, or the generator does,
//! the streams change and every number measured before stops being
//! comparable; that must fail loudly here, not drift silently. The same
//! fingerprints are printed beside every result (`stream_fingerprint`).
//!
//! A fingerprint that changes on purpose is a new benchmark: re-measure
//! the baseline in the same change that updates the value here.

use dta_benchmark::gen::{self, fingerprint};
use dta_benchmark::workloads::load_spec;
use dta_collector::ServiceConfig;
use dta_translator::TranslatorConfig;

const SEED: u64 = 1;

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

#[test]
fn ingest_hot_and_sharded_streams_are_pinned() {
    let s = gen::hot_streams(
        SEED,
        &ServiceConfig::default(),
        &TranslatorConfig::default(),
    );
    // ingest-hot: the four phases in order.
    let hot = fingerprint(
        s.kw.iter()
            .chain(&s.append)
            .chain(&s.inc)
            .chain(&s.postcard),
    );
    assert_eq!(hex(hot), "ab58e36c65a9788b");
    // ingest-sharded: the Key-Write and Key-Increment streams.
    assert_eq!(
        hex(fingerprint(s.kw.iter().chain(&s.inc))),
        "8288c3fc11b30c48"
    );
}

#[test]
fn ingest_wide_stream_is_pinned() {
    let (stream, _) = gen::wide_stream(SEED, &gen::wide_service());
    assert_eq!(stream.len(), gen::WIDE_REPORTS);
    assert_eq!(hex(fingerprint(&stream)), "472c396938c9ac25");
}

#[test]
fn serve_mixed_stream_is_pinned() {
    let (stream, _) = gen::mixed_stream(
        SEED,
        &ServiceConfig::default(),
        &TranslatorConfig::default(),
    );
    assert_eq!(hex(fingerprint(&stream)), "9378d4f3042323f2");
}

#[test]
fn scenario_streams_are_pinned() {
    for (name, reports, want) in [
        ("fabric-k8", 12_772, "05cb16ffa5219cb2"),
        ("churn-k4", 768, "23d2c65ab5c5cd9a"),
    ] {
        let spec = load_spec(name, SEED);
        let workload = dta_sim::generate(&spec);
        assert_eq!(workload.counts.total(), reports, "{name}");
        assert_eq!(
            hex(fingerprint(workload.streams.iter().flatten())),
            want,
            "{name}"
        );
    }
}

#[test]
fn every_workload_toml_spells_out_every_key() {
    // The files must be what `render_spec` renders (comments aside), so no
    // key is left to a default.
    for name in ["fabric-k8", "churn-k4"] {
        let path = format!("{}/workloads/{name}.toml", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        let body: String = text
            .lines()
            .skip_while(|l| l.starts_with('#') || l.is_empty())
            .map(|l| format!("{l}\n"))
            .collect();
        let spec = dta_sim::load_file(std::path::Path::new(&path))
            .unwrap()
            .spec;
        assert_eq!(
            body,
            dta_sim::render_spec(&spec),
            "{name}.toml is not fully explicit"
        );
    }
}
