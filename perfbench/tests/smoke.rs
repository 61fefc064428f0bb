//! Smoke check of the benchmark itself at a tiny scale: every workload, in
//! both the timed and the traced mode, prints a result line that names
//! every metric `BENCHMARK.json` declares for that mode, with its unit, and
//! checks every result with no failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (the subset the benchmark's files use).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_ws();
        assert_eq!(parser.at, parser.bytes.len(), "trailing text in {text}");
        value
    }

    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(self.bytes.get(self.at), Some(&byte), "at byte {}", self.at);
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        match self.bytes[self.at] {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(map);
                }
                loop {
                    let Json::Str(key) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let value = self.value();
                    assert!(
                        map.insert(key.clone(), value).is_none(),
                        "duplicate key {key}"
                    );
                    self.skip_ws();
                    self.at += 1;
                    if self.bytes[self.at - 1] == b'}' {
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.skip_ws();
                    self.at += 1;
                    if self.bytes[self.at - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.at += 1;
                let mut out = String::new();
                while self.bytes[self.at] != b'"' {
                    if self.bytes[self.at] == b'\\' {
                        self.at += 1;
                    }
                    out.push(self.bytes[self.at] as char);
                    self.at += 1;
                }
                self.at += 1;
                Json::Str(out)
            }
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.bytes[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return value;
                    }
                }
                panic!("bad literal at byte {}", self.at)
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let Json::Arr(metrics) = Parser::parse(&text).get(section).clone() else {
        panic!("{section} is not a list")
    };
    metrics
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--scale-factor",
            "0.005",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Parser::parse(last)
}

fn check_workload(workload: &str) {
    let workloads: Vec<String> = {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let Json::Arr(list) = Parser::parse(&text).get("workloads").clone() else {
            panic!("workloads is not a list")
        };
        list.iter()
            .map(|w| w.get("name").str().to_string())
            .collect()
    };
    assert!(
        workloads.iter().any(|w| w == workload),
        "{workload} not declared"
    );
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        let Json::Obj(top) = &result else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
        assert_eq!(
            result.get("failed"),
            &Json::Num(0.0),
            "{workload}: failed_frac must be 0"
        );
        let Json::Num(attempted) = result.get("attempted") else {
            panic!("attempted is not a number")
        };
        assert!(*attempted >= 1.0);
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let expected = declared(section);
        let printed: BTreeMap<String, String> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    matches!(m.get("value"), Json::Num(_)),
                    "{name} has no number"
                );
                (name.clone(), m.get("unit").str().to_string())
            })
            .collect();
        assert_eq!(
            printed, expected,
            "{workload} {section}: metrics or units differ"
        );
    }
}

#[test]
fn ssb_compressed_emits_every_metric() {
    check_workload("ssb-compressed");
}

#[test]
fn ssb_uncompressed_emits_every_metric() {
    check_workload("ssb-uncompressed");
}

#[test]
fn serve_mixed_emits_every_metric() {
    check_workload("serve-mixed");
}
