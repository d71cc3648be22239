//! The wire schema of a synthesis request batch.
//!
//! A batch is a JSON object `{"requests": [...]}` (a bare array, or a
//! bare single request object, are accepted too). Each request:
//!
//! ```json
//! {
//!   "design": "sum",                  // optional label; defaults to the function name
//!   "source": "void sum(...) {...}",  // the C-subset source (hls_ir::parse_function)
//!   "directives": { "clock_period_ns": 10.0, "loops": {...}, ... },
//!   "library": "asic_100mhz",         // a built-in TechLibrary name
//!   "verify": true                    // run hls-verify on the result
//! }
//! ```
//!
//! `directives` follows [`Directives::to_json`]'s schema and may be
//! omitted (clock defaults to the library's nominal period). Parsing is
//! strict about what it understands and loud about what it does not:
//! every error names the request index and the offending field.

use std::collections::HashMap;
use std::sync::Arc;

use hls_core::{Directives, TechLibrary};
use hls_ir::{parse_function, Function, Json};

use crate::digest::{request_key_for_text, RequestKey};

/// One parsed synthesis request.
#[derive(Debug, Clone)]
pub struct SynthesisRequest {
    /// Client-facing label (defaults to the parsed function's name).
    pub design: String,
    /// The C-subset source text.
    pub source: String,
    /// Synthesis directives.
    pub directives: Directives,
    /// Technology library.
    pub library: TechLibrary,
    /// Whether to equivalence-check the result.
    pub verify: bool,
}

impl SynthesisRequest {
    /// A request for `source` with default directives on the paper's
    /// ASIC library.
    pub fn new(source: &str) -> SynthesisRequest {
        let library = TechLibrary::asic_100mhz();
        SynthesisRequest {
            design: String::new(),
            source: source.to_string(),
            directives: Directives::new(library.nominal_clock_ns()),
            library,
            verify: false,
        }
    }

    /// Parses one request object.
    pub fn from_json(v: &Json) -> Result<SynthesisRequest, String> {
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or("request: missing source")?
            .to_string();
        let library = match v.get("library") {
            None => TechLibrary::asic_100mhz(),
            Some(l) => {
                let name = l.as_str().ok_or("request: library is not a string")?;
                TechLibrary::by_name(name)
                    .ok_or_else(|| format!("request: unknown library `{name}`"))?
            }
        };
        let directives = match v.get("directives") {
            None => Directives::new(library.nominal_clock_ns()),
            Some(d) => Directives::from_json(d)?,
        };
        Ok(SynthesisRequest {
            design: v
                .get("design")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            source,
            directives,
            library,
            verify: v.get("verify").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// Serializes the request (the inverse of [`SynthesisRequest::from_json`]).
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if !self.design.is_empty() {
            fields.push(("design", Json::str(self.design.clone())));
        }
        fields.push(("source", Json::str(self.source.clone())));
        fields.push(("directives", self.directives.to_json()));
        fields.push(("library", Json::str(self.library.name())));
        fields.push(("verify", Json::Bool(self.verify)));
        Json::obj(fields)
    }

    /// The label to report for this request.
    pub fn label<'a>(&'a self, func: &'a Function) -> &'a str {
        if self.design.is_empty() {
            &func.name
        } else {
            &self.design
        }
    }
}

/// One request after [`prepare_batch`]: its parsed function and content
/// address, or the message its source failed to parse with. Requests
/// with the same source share one parsed function.
pub type Prepared = Result<(Arc<Function>, RequestKey), String>;

/// Parses every request's source and derives its content address, in
/// request order. Each unique source text is parsed and canonically
/// rendered once — sweeps reuse one design under many directive sets,
/// and the front end is pure in the source.
pub fn prepare_batch(requests: &[SynthesisRequest]) -> Vec<Prepared> {
    let mut parsed: HashMap<&str, Result<(Arc<Function>, String), String>> = HashMap::new();
    requests
        .iter()
        .map(|r| {
            let (func, text) = parsed
                .entry(r.source.as_str())
                .or_insert_with(|| {
                    parse_function(&r.source)
                        .map(|f| {
                            let text = f.to_string();
                            (Arc::new(f), text)
                        })
                        .map_err(|e| format!("request source does not parse: {e}"))
                })
                .as_ref()
                .map_err(Clone::clone)?;
            let key = request_key_for_text(text, &r.directives, &r.library, r.verify);
            Ok((Arc::clone(func), key))
        })
        .collect()
}

/// Serializes requests as a `{"requests": [...]}` batch — the wire form
/// [`parse_batch`] accepts, used when a cluster shard forwards a
/// sub-batch to the digest's owner.
pub fn batch_to_json(requests: &[SynthesisRequest]) -> Json {
    Json::obj(vec![(
        "requests",
        Json::Arr(requests.iter().map(SynthesisRequest::to_json).collect()),
    )])
}

/// Parses a batch: `{"requests": [...]}`, a bare array, or one object.
pub fn parse_batch(text: &str) -> Result<Vec<SynthesisRequest>, String> {
    let v = Json::parse(text).map_err(|e| format!("batch is not valid JSON: {e}"))?;
    batch_from_json(&v)
}

/// [`parse_batch`] for an already-parsed JSON value (the cluster wire
/// protocol embeds batches inside frames).
pub fn batch_from_json(v: &Json) -> Result<Vec<SynthesisRequest>, String> {
    let list: Vec<&Json> = match v {
        Json::Obj(_) if v.get("requests").is_some() => v
            .get("requests")
            .and_then(Json::as_arr)
            .ok_or("batch: `requests` is not an array")?
            .iter()
            .collect(),
        Json::Obj(_) => vec![&v],
        Json::Arr(items) => items.iter().collect(),
        _ => return Err("batch: expected an object or an array".to_string()),
    };
    list.iter()
        .enumerate()
        .map(|(i, r)| SynthesisRequest::from_json(r).map_err(|e| format!("request #{i}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }";

    #[test]
    fn batch_round_trips_through_json() {
        let mut req = SynthesisRequest::new(SRC);
        req.design = "twice".into();
        req.verify = true;
        let batch = Json::obj(vec![("requests", Json::Arr(vec![req.to_json()]))]).write();
        let parsed = parse_batch(&batch).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].design, "twice");
        assert!(parsed[0].verify);
        let mut prepared = prepare_batch(&[req.clone(), parsed[0].clone()]).into_iter();
        let (f1, k1) = prepared.next().unwrap().unwrap();
        let (_, k2) = prepared.next().unwrap().unwrap();
        assert_eq!(k1, k2, "round-trip preserves the content address");
        assert_eq!(req.label(&f1), "twice");
    }

    #[test]
    fn prepare_batch_keys_match_request_key_and_keep_parse_errors() {
        let mut other = SynthesisRequest::new(SRC);
        other.verify = true;
        let batch = [
            SynthesisRequest::new(SRC),
            SynthesisRequest::new("void broken("),
            other,
        ];
        let prepared = prepare_batch(&batch);
        assert_eq!(prepared.len(), 3);
        let func = parse_function(SRC).unwrap();
        for i in [0, 2] {
            let (f, key) = prepared[i].as_ref().unwrap();
            assert_eq!(**f, func);
            let r = &batch[i];
            let expected = crate::digest::request_key(&func, &r.directives, &r.library, r.verify);
            assert_eq!(key, &expected, "request {i}");
        }
        let err = prepared[1].as_ref().unwrap_err();
        assert!(err.starts_with("request source does not parse"), "{err}");
        let (first, _) = prepared[0].as_ref().unwrap();
        let (third, _) = prepared[2].as_ref().unwrap();
        assert!(Arc::ptr_eq(first, third), "one parsed function per source");
    }

    #[test]
    fn bare_object_and_array_forms_parse() {
        let one = SynthesisRequest::new(SRC).to_json().write();
        assert_eq!(parse_batch(&one).unwrap().len(), 1);
        let arr = Json::Arr(vec![SynthesisRequest::new(SRC).to_json()]).write();
        assert_eq!(parse_batch(&arr).unwrap().len(), 1);
    }

    #[test]
    fn errors_name_the_request_and_field() {
        let bad = r#"{"requests": [{"library": "asic_100mhz"}]}"#;
        let err = parse_batch(bad).unwrap_err();
        assert!(err.contains("request #0"), "{err}");
        assert!(err.contains("source"), "{err}");
        let unknown = r#"{"source": "void f() {}", "library": "tsmc7"}"#;
        assert!(parse_batch(unknown)
            .unwrap_err()
            .contains("unknown library"));
    }
}
