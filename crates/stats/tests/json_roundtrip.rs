//! Property tests for the `Json` writer/parser pair, plus strict-parser
//! rejection cases. `dgl compare` and `dgl pin` consume externally
//! supplied manifests and pin tables, so the parser must both accept everything the
//! writer emits (exactly, including `u64` counters above 2^53) and
//! reject the common near-JSON that other tools leak (trailing commas,
//! bare NaN/Infinity, duplicate keys).

use dgl_stats::Json;
use proptest::collection;
use proptest::prelude::*;

/// Arbitrary JSON documents up to three levels of nesting. Object keys
/// are deduplicated at generation time because the strict parser
/// rejects duplicate keys (tested separately below).
fn json_strategy() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(Json::uint),
        // Finite floats only: m / 2^e is exact in binary, and the
        // writer renders non-finite values as null (lossy by design).
        (any::<i64>(), 0u32..40).prop_map(|(m, e)| Json::num(m as f64 / (1u64 << e) as f64)),
        "\\PC{0,12}".prop_map(Json::str),
    ];
    leaf.prop_recursive(3, 24, 5, |inner| {
        prop_oneof![
            collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
            collection::vec(("\\PC{0,8}", inner.clone()), 0..5).prop_map(|fields| {
                let mut obj: Vec<(String, Json)> = Vec::new();
                for (k, v) in fields {
                    if !obj.iter().any(|(seen, _)| *seen == k) {
                        obj.push((k, v));
                    }
                }
                Json::Obj(obj)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn compact_output_round_trips(doc in json_strategy()) {
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("writer output must parse");
        prop_assert_eq!(parsed, doc);
    }

    #[test]
    fn pretty_output_round_trips(doc in json_strategy()) {
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("pretty writer output must parse");
        prop_assert_eq!(parsed, doc);
    }
}

#[test]
fn rejects_near_json() {
    for (doc, why) in [
        ("[1,]", "trailing comma in array"),
        ("{\"a\": 1,}", "trailing comma in object"),
        ("NaN", "bare NaN"),
        ("Infinity", "bare Infinity"),
        ("-Infinity", "bare -Infinity"),
        ("[1, NaN]", "NaN inside an array"),
        ("{\"a\": 1, \"a\": 2}", "duplicate object key"),
        ("", "empty input"),
        ("[1] 2", "trailing garbage"),
    ] {
        assert!(Json::parse(doc).is_err(), "parser accepted {why}: {doc:?}");
    }
}

#[test]
fn duplicate_key_error_names_the_key() {
    let err = Json::parse("{\"ipc\": 1.0, \"ipc\": 2.0}").unwrap_err();
    assert!(err.contains("duplicate key"), "unexpected error: {err}");
    assert!(err.contains("ipc"), "error should name the key: {err}");
}
