//! What the benchmark relies on from `serde` / `serde_json`, stated as
//! exact JSON text. Built with `stand-ins/patch.toml` (see `run.py`) this
//! exercises the stand-ins; otherwise it runs against the published
//! crates — the assertions hold for both, so frame and WAL sizes
//! measured with the stand-ins are the real ones.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Inner {
    id: u64,
    score: f64,
    name: String,
    origin: Option<(u32, u64)>,
    #[serde(default)]
    extra: usize,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(Inner),
    Tuple(u8, String),
    Struct { a: i32, b: Vec<bool> },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Tagged {
    BigCounter { value: u64 },
    Gauge { value: i64 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Wrapper<T> {
    items: Vec<T>,
    by_id: BTreeMap<u32, String>,
}

fn inner() -> Inner {
    Inner {
        id: u64::MAX,
        score: 0.5895190738882145,
        name: "a \"quoted\"\nline\t\u{1}é".to_string(),
        origin: Some((7, 42)),
        extra: 3,
    }
}

#[test]
fn structs_enums_and_maps_have_serde_json_s_encoding() {
    let text = serde_json::to_string(&inner()).unwrap();
    assert_eq!(
        text,
        r#"{"id":18446744073709551615,"score":0.5895190738882145,"name":"a \"quoted\"\nline\t\u0001é","origin":[7,42],"extra":3}"#
    );
    assert_eq!(serde_json::from_str::<Inner>(&text).unwrap(), inner());

    let shapes = vec![
        Shape::Unit,
        Shape::Tuple(1, "x".into()),
        Shape::Struct {
            a: -5,
            b: vec![true, false],
        },
    ];
    let text = serde_json::to_string(&shapes).unwrap();
    assert_eq!(
        text,
        r#"["Unit",{"Tuple":[1,"x"]},{"Struct":{"a":-5,"b":[true,false]}}]"#
    );
    assert_eq!(serde_json::from_str::<Vec<Shape>>(&text).unwrap(), shapes);
    let newtype = Shape::Newtype(inner());
    let text = serde_json::to_vec(&newtype).unwrap();
    assert!(text.starts_with(br#"{"Newtype":{"id":"#));
    assert_eq!(serde_json::from_slice::<Shape>(&text).unwrap(), newtype);

    let tagged = Tagged::BigCounter { value: 9 };
    let text = serde_json::to_string(&tagged).unwrap();
    assert_eq!(text, r#"{"kind":"big_counter","value":9}"#);
    // The tag need not come first.
    let swapped: Tagged = serde_json::from_str(r#"{"value":-2,"kind":"gauge"}"#).unwrap();
    assert_eq!(swapped, Tagged::Gauge { value: -2 });

    let wrapper = Wrapper {
        items: vec![None, Some(1.5f64)],
        by_id: BTreeMap::from([(2, "b".to_string()), (10, "j".to_string())]),
    };
    let text = serde_json::to_string(&wrapper).unwrap();
    assert_eq!(text, r#"{"items":[null,1.5],"by_id":{"2":"b","10":"j"}}"#);
    assert_eq!(
        serde_json::from_str::<Wrapper<Option<f64>>>(&text).unwrap(),
        wrapper
    );
}

#[test]
fn readers_are_lenient_where_serde_is_and_strict_elsewhere() {
    // Unknown fields are skipped, a defaulted or optional field may be
    // absent, whitespace is free.
    let text = r#" { "later": {"x": [1, {"y": null}]}, "id": 1, "score": 2,
                     "name": "n" } "#;
    let got: Inner = serde_json::from_str(text).unwrap();
    assert_eq!(
        got,
        Inner {
            id: 1,
            score: 2.0,
            name: "n".into(),
            origin: None,
            extra: 0
        }
    );
    for bad in [
        r#"{"id":1,"score":2}"#,                               // missing field
        r#"{"id":-1,"score":2,"name":"n"}"#,                   // negative into u64
        r#"{"id":1.5,"score":2,"name":"n"}"#,                  // float into u64
        r#"{"id":1,"score":2,"name":"n"} x"#,                  // trailing characters
        r#"{"id":1,"score":2,"name":"n""#,                     // truncated
        r#"{"id":18446744073709551616,"score":2,"name":"n"}"#, // overflow
    ] {
        assert!(serde_json::from_str::<Inner>(bad).is_err(), "{bad}");
    }
    assert!(serde_json::from_str::<Shape>(r#""Nope""#).is_err());
    assert!(serde_json::from_str::<Tagged>(r#"{"value":1}"#).is_err());
    // Hostile nesting is refused, not recursed into.
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<Vec<Shape>>(&deep).is_err());
}

#[test]
fn pretty_output_round_trips() {
    let wrapper = Wrapper {
        items: vec![Tagged::Gauge { value: 1 }],
        by_id: BTreeMap::new(),
    };
    let text = serde_json::to_string_pretty(&wrapper).unwrap();
    assert_eq!(
        text,
        "{\n  \"items\": [\n    {\n      \"kind\": \"gauge\",\n      \"value\": 1\n    }\n  ],\n  \"by_id\": {}\n}"
    );
    assert_eq!(
        serde_json::from_str::<Wrapper<Tagged>>(&text).unwrap(),
        wrapper
    );
}
