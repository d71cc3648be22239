//! Batch-service behavior: in-flight dedup, admission control (which
//! never sees a request the store can answer), and the acceptance
//! criterion — a warm-cache Table-1 sweep returning
//! bit-identical artifacts without touching the pipeline.

use std::fs;
use std::path::PathBuf;

use hls_serve::{
    serve_batch, ArtifactStore, RequestOutcome, ServiceConfig, StoreConfig, SynthesisRequest,
};
use qam_decoder::{table1_architectures, table1_library, QAM_DECODER_SOURCE};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hls-service-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const TWICE: &str = "void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }";
const SUM: &str = "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
                   sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }";

#[test]
fn identical_in_flight_requests_are_deduped_observably() {
    let root = scratch("dedup");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let twice = SynthesisRequest::new(TWICE);
    let sum = SynthesisRequest::new(SUM);
    let batch = vec![twice.clone(), twice.clone(), sum, twice];

    let report = serve_batch(&batch, &store, &ServiceConfig::default());
    assert_eq!(
        report.counters.deduped, 2,
        "three identical requests, one job"
    );
    assert_eq!(report.counters.synthesized, 2);
    assert_eq!(report.counters.misses, 2);
    assert_eq!(report.counters.hits, 0);
    assert_eq!(report.counters.queue_peak, 2);
    assert_eq!(report.outcomes.len(), 4);
    let deduped: Vec<bool> = report.outcomes.iter().map(|o| o.deduped).collect();
    assert_eq!(deduped, vec![false, true, false, true]);
    // Duplicates carry the executor's artifact verbatim.
    let v0 = &report.outcomes[0].artifact.as_ref().unwrap().verilog;
    let v3 = &report.outcomes[3].artifact.as_ref().unwrap().verilog;
    assert_eq!(v0, v3);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn admission_rejects_modeled_over_budget_jobs() {
    let root = scratch("admission");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let cfg = ServiceConfig {
        workers: 1,
        max_cost_ns: Some(1),
        ..ServiceConfig::default()
    };
    // Cheapest-first ordering: `twice` runs unmodeled (always admitted)
    // and trains the cost model; `sum` is then modeled over the 1 ns
    // ceiling and rejected.
    let batch = vec![SynthesisRequest::new(TWICE), SynthesisRequest::new(SUM)];
    let report = serve_batch(&batch, &store, &cfg);
    assert_eq!(report.counters.rejected, 1);
    assert_eq!(report.counters.synthesized, 1);
    let rejected = report.outcomes.iter().find(|o| o.rejected).unwrap();
    assert!(rejected.artifact.is_none());
    assert!(rejected.error.as_ref().unwrap().contains("admission"));
    assert!(rejected.modeled_cost_ns.unwrap() >= 1);
    // The rejection carries the resource-aware bound that sized the job:
    // a structured diagnostic with the admissible latency/area floor.
    let diag = rejected
        .diagnostics
        .as_ref()
        .expect("rejection carries diagnostics")
        .find("admission-rejected")
        .expect("admission diagnostic present");
    assert_eq!(diag.pass, "admission");
    let library = hls_core::TechLibrary::asic_100mhz();
    let bound = hls_core::lower_bound(
        &hls_ir::parse_function(SUM).unwrap(),
        &hls_core::Directives::new(library.nominal_clock_ns()),
        &library,
    );
    let note = diag.notes.join("\n");
    assert!(
        note.contains(&format!("latency >= {} cycles", bound.latency_cycles)),
        "diagnostic must carry the latency bound: {note}"
    );
    assert!(
        note.contains("area >="),
        "diagnostic must carry the area bound: {note}"
    );
    assert!(
        note.contains(&format!("bounded operations: {}", bound.ops)),
        "diagnostic must carry the bounded op count: {note}"
    );
    // Serialized outcomes expose the same diagnostic to HTTP clients.
    let json = rejected.to_json();
    let diags = json.get("diagnostics").expect("diagnostics serialized");
    assert!(matches!(diags, hls_ir::Json::Arr(v) if !v.is_empty()));
    let _ = fs::remove_dir_all(&root);
}

/// The admission config of `admission_rejects_modeled_over_budget_jobs`:
/// once the model has one observation, every bounded job is over budget.
fn strict_admission() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        max_cost_ns: Some(1),
        ..ServiceConfig::default()
    }
}

#[test]
fn admission_never_refuses_a_stored_answer() {
    let root = scratch("admission-hit");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let stored = serve_batch(
        &[SynthesisRequest::new(SUM)],
        &store,
        &ServiceConfig::default(),
    );
    assert!(stored.outcomes[0].artifact.is_some());

    // `twice` is a miss that would train the model; `sum` must still be
    // answered from the store, never priced against the ceiling.
    let batch = vec![SynthesisRequest::new(TWICE), SynthesisRequest::new(SUM)];
    let report = serve_batch(&batch, &store, &strict_admission());
    assert_eq!(report.counters.rejected, 0);
    assert_eq!(report.counters.hits, 1);
    assert_eq!(report.counters.synthesized, 1);
    let sum = &report.outcomes[1];
    assert!(
        sum.cache_hit,
        "stored answer must be a hit: {:?}",
        sum.error
    );
    assert_eq!(sum.modeled_cost_ns, None, "a hit is never priced");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn an_admitted_miss_carries_no_modeled_cost() {
    let root = scratch("unpriced");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    // One worker, a ceiling nothing reaches: cheapest-first, `twice`
    // finishes first and trains the cost model before `sum` runs. The
    // model only decides rejections, so `sum`'s first serve must not
    // report what it priced.
    let cfg = ServiceConfig {
        workers: 1,
        max_cost_ns: Some(u64::MAX),
        ..ServiceConfig::default()
    };
    let batch = vec![SynthesisRequest::new(TWICE), SynthesisRequest::new(SUM)];
    let cold = serve_batch(&batch, &store, &cfg);
    assert_eq!(cold.counters.synthesized, 2);
    let sum = &cold.outcomes[1];
    assert!(sum.artifact.is_some(), "{:?}", sum.error);
    assert_eq!(sum.modeled_cost_ns, None, "an admitted miss is not priced");

    // So the first serve reads exactly like its hit, `cache_hit` aside.
    let warm = serve_batch(&batch, &store, &cfg);
    assert!(warm.outcomes[1].cache_hit);
    assert_eq!(
        warm.outcomes[1]
            .to_json()
            .write()
            .replacen("\"cache_hit\":true", "\"cache_hit\":false", 1),
        sum.to_json().write()
    );
    let _ = fs::remove_dir_all(&root);
}

/// What a request's answer says about the design: the Verilog, metrics,
/// verdict and diagnostics of its artifact, or its error and failure.
/// The trace is left out: it holds wall times.
fn answer(o: &RequestOutcome) -> String {
    match &o.artifact {
        Some(a) => format!(
            "{}\n{:?}\n{:?}\n{}",
            a.verilog,
            a.metrics,
            a.verdict,
            a.diagnostics.write()
        ),
        None => format!("{:?}\n{:?}", o.error, o.failure),
    }
}

#[test]
fn a_ceiling_free_batch_answers_each_request_as_it_would_alone() {
    let sum = |clock: f64, verify: bool| {
        let mut r = SynthesisRequest::new(SUM);
        r.directives.clock_period_ns = clock;
        r.verify = verify;
        r
    };
    let mut twice = SynthesisRequest::new(TWICE);
    twice.verify = true;
    let mut infeasible = SynthesisRequest::new(TWICE);
    infeasible.directives.clock_period_ns = 0.05;
    let batch = vec![twice, sum(10.0, true), sum(5.0, false), infeasible];
    let cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };

    let root = scratch("batch-vs-alone");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let together = serve_batch(&batch, &store, &cfg);
    assert_eq!(together.counters.misses, batch.len() as u64);
    assert_eq!(together.counters.synthesized, 3);
    assert_eq!(together.counters.rejected, 0);
    for (i, (request, o)) in batch.iter().zip(&together.outcomes).enumerate() {
        assert_eq!(o.modeled_cost_ns, None, "request {i} was priced");
        let fresh = scratch(&format!("alone-{i}"));
        let alone = serve_batch(
            std::slice::from_ref(request),
            &ArtifactStore::open(&fresh, StoreConfig::default()).unwrap(),
            &cfg,
        );
        assert_eq!(
            answer(o),
            answer(&alone.outcomes[0]),
            "request {i} differs from its lone serve"
        );
        let _ = fs::remove_dir_all(&fresh);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn admission_never_refuses_a_stored_failure() {
    let root = scratch("admission-neg");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let mut bad = SynthesisRequest::new(TWICE);
    bad.directives.clock_period_ns = 0.05;
    let stored = serve_batch(
        std::slice::from_ref(&bad),
        &store,
        &ServiceConfig::default(),
    );
    assert_eq!(stored.counters.neg_inserts, 1);

    let batch = vec![SynthesisRequest::new(TWICE), bad];
    let report = serve_batch(&batch, &store, &strict_admission());
    assert_eq!(report.counters.rejected, 0);
    assert_eq!(report.counters.neg_hits, 1);
    let o = &report.outcomes[1];
    assert!(o.negative_hit, "stored failure must be replayed: {o:?}");
    assert!(!o.rejected);
    assert_eq!(o.modeled_cost_ns, None, "a negative hit is never priced");
    assert_eq!(o.failure.as_ref().unwrap().code, "infeasible-clock");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn warm_table1_sweep_returns_bit_identical_artifacts() {
    let root = scratch("table1");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let lib = table1_library();
    let requests: Vec<SynthesisRequest> = table1_architectures()
        .into_iter()
        .map(|arch| SynthesisRequest {
            design: arch.name.to_string(),
            source: QAM_DECODER_SOURCE.to_string(),
            directives: arch.directives,
            library: lib.clone(),
            verify: true,
        })
        .collect();
    let cfg = ServiceConfig::default();

    let cold = serve_batch(&requests, &store, &cfg);
    assert_eq!(cold.counters.misses, requests.len() as u64);
    assert_eq!(cold.counters.synthesized, requests.len() as u64);
    for o in &cold.outcomes {
        let a = o.artifact.as_ref().unwrap_or_else(|| {
            panic!("{} failed: {:?}", o.design, o.error);
        });
        assert!(
            a.verdict.as_ref().unwrap().passed,
            "{} must verify",
            o.design
        );
    }

    let warm = serve_batch(&requests, &store, &cfg);
    assert_eq!(warm.counters.hits, requests.len() as u64);
    assert_eq!(warm.counters.misses, 0);
    assert_eq!(warm.counters.synthesized, 0);
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert!(w.cache_hit, "{} must be served from the store", w.design);
        let ca = c.artifact.as_ref().unwrap();
        let wa = w.artifact.as_ref().unwrap();
        assert_eq!(
            ca.verilog, wa.verilog,
            "{}: Verilog must be byte-identical",
            w.design
        );
        assert_eq!(
            ca.metrics, wa.metrics,
            "{}: metrics must round-trip exactly",
            w.design
        );
        assert_eq!(
            ca.verdict, wa.verdict,
            "{}: verdict must be preserved",
            w.design
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn deterministic_failures_are_negative_cached() {
    let root = scratch("negative");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    // 0.05 ns cannot fit any operation in the library: the schedule
    // fails deterministically, every time, on every machine.
    let mut bad = SynthesisRequest::new(TWICE);
    bad.design = "twice@0.05ns".into();
    bad.directives.clock_period_ns = 0.05;
    let batch = vec![bad];
    let cfg = ServiceConfig::default();

    let cold = serve_batch(&batch, &store, &cfg);
    let o = &cold.outcomes[0];
    assert!(!o.negative_hit, "first failure runs the pipeline");
    let failure = o.failure.as_ref().expect("structured failure recorded");
    assert_eq!(failure.code, "infeasible-clock");
    assert!(o.error.as_ref().unwrap().contains("synthesis:"));
    assert_eq!(cold.counters.neg_inserts, 1);
    assert_eq!(cold.counters.errors, 1);
    assert_eq!(cold.counters.synthesized, 0);

    // The retry is a store read: no pipeline run, same failure, and the
    // positive miss counter stays untouched (the probe is silent).
    let warm = serve_batch(&batch, &store, &cfg);
    let o = &warm.outcomes[0];
    assert!(o.negative_hit, "retry must replay the cached failure");
    assert_eq!(o.failure.as_ref().unwrap().code, "infeasible-clock");
    assert_eq!(
        o.failure.as_ref().unwrap().error,
        failure.error,
        "replayed failure must match the original"
    );
    assert_eq!(warm.counters.neg_hits, 1);
    assert_eq!(warm.counters.misses, 0);
    assert_eq!(warm.counters.synthesized, 0);
    assert_eq!(warm.counters.neg_inserts, 0);

    // The serialized outcome carries the failure for wire clients.
    let json = o.to_json();
    assert_eq!(
        json.get("failure_code").and_then(hls_ir::Json::as_str),
        Some("infeasible-clock")
    );
    assert_eq!(
        json.get("negative_hit").and_then(hls_ir::Json::as_bool),
        Some(true)
    );

    // A negative entry never shadows a fixable request: the same design
    // at a feasible clock synthesizes normally.
    let ok = serve_batch(&[SynthesisRequest::new(TWICE)], &store, &cfg);
    assert!(ok.outcomes[0].artifact.is_some());
    assert!(!ok.outcomes[0].negative_hit);
    let _ = fs::remove_dir_all(&root);
}
