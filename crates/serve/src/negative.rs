//! Negative caching: persisted synthesis *failures*.
//!
//! Synthesis is deterministic, so a request that fails the pipeline —
//! an infeasible clock, an over-constrained schedule, a directive that
//! references nothing — fails identically on every retry. Without a
//! negative cache each retry pays for the full pipeline run just to
//! rediscover the same [`Diagnostic`]s; with one, the failure is an
//! artifact like any other: keyed by the same content digest, stored
//! with the same preimage + body-digest integrity discipline, and
//! served for the cost of one store read.
//!
//! What is cached is deliberately narrow: only *deterministic pipeline
//! failures* (`SynthesisError`, which is a pure function of the
//! canonical request). Parse failures never reach a digest, and
//! admission rejections depend on the service's observed cost model —
//! neither is content-addressed, so neither is cached.
//!
//! [`Diagnostic`]: hls_ir::Diagnostic

use hls_ir::Json;

/// Schema tag of one negative entry (bump on layout changes). v2: the
/// entry's digests moved to MurmurHash3 with
/// [`REQUEST_SCHEMA`](crate::REQUEST_SCHEMA) v4.
pub const NEGATIVE_SCHEMA: &str = "hls-serve-negative/v2";

/// A cached synthesis failure: everything a caller needs to see the
/// same rejection the pipeline produced, without re-running it.
#[derive(Debug, Clone, PartialEq)]
pub struct NegativeEntry {
    /// Design (module) name the request was labeled with.
    pub design: String,
    /// The stable machine-readable code of the failing error
    /// (e.g. `infeasible-clock`, `unschedulable`).
    pub code: String,
    /// Human-readable description of the failure.
    pub error: String,
    /// The failed run's structured diagnostics, as JSON.
    pub diagnostics: Json,
}

impl NegativeEntry {
    /// Serializes the failure body (the store wraps it in an envelope).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("design", Json::str(self.design.clone())),
            ("code", Json::str(self.code.clone())),
            ("error", Json::str(self.error.clone())),
            ("diagnostics", self.diagnostics.clone()),
        ])
    }

    /// Parses a failure body (the inverse of [`NegativeEntry::to_json`]).
    pub fn from_json(v: &Json) -> Result<NegativeEntry, String> {
        Ok(NegativeEntry {
            design: v
                .get("design")
                .and_then(Json::as_str)
                .ok_or("negative entry: missing design")?
                .to_string(),
            code: v
                .get("code")
                .and_then(Json::as_str)
                .ok_or("negative entry: missing code")?
                .to_string(),
            error: v
                .get("error")
                .and_then(Json::as_str)
                .ok_or("negative entry: missing error")?
                .to_string(),
            diagnostics: v
                .get("diagnostics")
                .cloned()
                .unwrap_or(Json::Arr(Vec::new())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_entry_round_trips() {
        let e = NegativeEntry {
            design: "decoder".into(),
            code: "infeasible-clock".into(),
            error: "operation mul needs 6.40 ns but the clock period is 0.50 ns".into(),
            diagnostics: Json::Arr(vec![Json::obj(vec![(
                "code",
                Json::str("infeasible-clock"),
            )])]),
        };
        let back = NegativeEntry::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn negative_entry_parse_is_strict() {
        let missing = Json::obj(vec![("design", Json::str("d"))]);
        assert!(NegativeEntry::from_json(&missing)
            .unwrap_err()
            .contains("code"));
    }
}
