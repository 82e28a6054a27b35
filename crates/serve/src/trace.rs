//! Trace workload files: capture a scenario's arrival stream to a
//! portable text file, and replay such a file as the scenario's
//! workload.
//!
//! A trace file is JSON Lines — one record per request, in arrival
//! order:
//!
//! ```text
//! {"at_s":0.131,"model":"CLIP ViT-B/16"}
//! {"at_s":2.774,"model":"CLIP ViT-B/16"}
//! ```
//!
//! `at_s` is the absolute arrival time in seconds; `model` is the zoo
//! name of the requested model and must be deployed by the replaying
//! scenario. Replay maps the records onto
//! [`ArrivalProcess::Trace`](s2m3_sim::workload::ArrivalProcess) (the
//! consecutive inter-arrival gaps) and
//! [`ModelMix::Trace`](s2m3_sim::workload::ModelMix) (the model
//! sequence), collapsing any multi-source traffic into the single
//! merged stream the original run produced. Replay is fully
//! deterministic: serving the same trace file twice yields
//! byte-identical reports. Reconstructing arrival instants from gap
//! sums can differ from the captured absolutes by float-rounding ulps,
//! so a replayed run is equivalent to — but not guaranteed bit-for-bit
//! identical with — the run it was captured from.

use crate::config::ServeScenario;
use s2m3_sim::workload::{ArrivalProcess, ModelMix};
use serde::{Deserialize, Serialize};

/// One recorded request of a trace file: when it arrived and which
/// deployed model it asked for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TraceRecord {
    /// Absolute arrival time, seconds from run start.
    pub at_s: f64,
    /// Zoo model name (must be deployed by the replaying scenario).
    pub model: String,
}

/// Materializes the scenario's workload into trace records — the same
/// merged stream [`serve`](crate::serve) would consume, request for
/// request.
///
/// # Errors
///
/// A human-readable message when the scenario's workload spec is
/// invalid (e.g. a mix referencing an undeployed model).
pub fn capture(scenario: &ServeScenario) -> Result<Vec<TraceRecord>, String> {
    let model_names: Vec<String> = scenario.models.iter().map(|m| m.name.clone()).collect();
    let mut stream = scenario
        .workload()
        .stream(scenario.requests, &model_names)
        .map_err(|e| format!("trace capture: {e}"))?;
    let mut records = Vec::with_capacity(scenario.requests);
    while let Some(req) = stream.next_request() {
        records.push(TraceRecord {
            at_s: req.at_s,
            model: model_names[req.model as usize].clone(),
        });
    }
    Ok(records)
}

/// Rewrites the scenario's traffic to replay `records`: arrivals become
/// the recorded inter-arrival gaps, the mix becomes the recorded model
/// sequence, and any multi-source configuration is cleared (a trace is
/// the already-merged stream). `scenario.requests` is left untouched —
/// trace workloads cycle, so serving more requests than the trace holds
/// repeats it from the top.
///
/// # Errors
///
/// A human-readable message when `records` is empty, a time is
/// non-finite or decreasing, or a model is not deployed by `scenario`.
pub fn apply(scenario: &mut ServeScenario, records: &[TraceRecord]) -> Result<(), String> {
    if records.is_empty() {
        return Err("trace replay: empty trace".into());
    }
    let mut gaps = Vec::with_capacity(records.len());
    let mut prev = 0.0f64;
    for (i, r) in records.iter().enumerate() {
        if !r.at_s.is_finite() || r.at_s < 0.0 {
            return Err(format!("trace replay: record {i}: bad at_s {}", r.at_s));
        }
        if r.at_s < prev {
            return Err(format!(
                "trace replay: record {i}: at_s {} decreases below {prev}",
                r.at_s
            ));
        }
        if !scenario.models.iter().any(|m| m.name == r.model) {
            return Err(format!(
                "trace replay: record {i}: model {:?} is not deployed",
                r.model
            ));
        }
        gaps.push(r.at_s - prev);
        prev = r.at_s;
    }
    scenario.sources.clear();
    scenario.arrivals = ArrivalProcess::Trace {
        inter_arrival_s: gaps,
    };
    scenario.mix = Some(ModelMix::Trace {
        models: records.iter().map(|r| r.model.clone()).collect(),
    });
    Ok(())
}

/// Renders trace records as JSON Lines (one record per line, trailing
/// newline).
#[must_use]
pub fn render(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        // TraceRecord is a flat struct of a float and a string — its
        // serialization is infallible.
        out.push_str(&serde_json::to_string(r).expect("trace record serializes"));
        out.push('\n');
    }
    out
}

/// Parses a JSON Lines trace file; blank lines and `#` comment lines
/// are skipped.
///
/// # Errors
///
/// A human-readable message naming the first malformed line.
pub fn parse(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let record: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve;

    fn small_scenario() -> ServeScenario {
        let mut s = ServeScenario::churn_default();
        s.requests = 120;
        s.events.clear();
        s
    }

    #[test]
    fn capture_produces_one_record_per_request_in_order() {
        let scenario = small_scenario();
        let records = capture(&scenario).unwrap();
        assert_eq!(records.len(), scenario.requests);
        for w in records.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        for r in &records {
            assert!(scenario.models.iter().any(|m| m.name == r.model));
        }
    }

    #[test]
    fn render_parse_round_trips_bitwise() {
        let records = capture(&small_scenario()).unwrap();
        let parsed = parse(&render(&records)).unwrap();
        assert_eq!(records, parsed);
        for (a, b) in records.iter().zip(&parsed) {
            assert_eq!(a.at_s.to_bits(), b.at_s.to_bits());
        }
    }

    #[test]
    fn parse_skips_blanks_and_comments_and_names_bad_lines() {
        let text = "# a comment\n\n{\"at_s\":1.5,\"model\":\"m\"}\n";
        let records = parse(text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].model, "m");
        let err = parse("{\"at_s\":1.5,\"model\":\"m\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // A key the record does not have is an error naming it, not
        // silently dropped.
        let err =
            parse("{\"at_s\":1.5,\"model\":\"m\"}\n{\"at_s\":2.0,\"modle\":\"m\"}\n").unwrap_err();
        assert_eq!(
            err,
            "trace line 2: unknown field `modle`, expected `at_s` or `model`"
        );
    }

    #[test]
    fn apply_rejects_bad_traces() {
        let mut scenario = small_scenario();
        assert!(apply(&mut scenario, &[]).is_err());
        let unknown = vec![TraceRecord {
            at_s: 0.0,
            model: "no-such-model".into(),
        }];
        assert!(apply(&mut scenario, &unknown)
            .unwrap_err()
            .contains("not deployed"));
        let model = scenario.models[0].name.clone();
        let decreasing = vec![
            TraceRecord {
                at_s: 2.0,
                model: model.clone(),
            },
            TraceRecord { at_s: 1.0, model },
        ];
        assert!(apply(&mut scenario, &decreasing)
            .unwrap_err()
            .contains("decreases"));
    }

    #[test]
    fn captured_trace_replays_the_run() {
        let original = small_scenario();
        let base = serve(&original).unwrap();
        let records = capture(&original).unwrap();

        let mut replayed = original.clone();
        apply(&mut replayed, &records).unwrap();
        let a = serve(&replayed).unwrap();
        let b = serve(&replayed).unwrap();
        // Replay is deterministic: two runs of the same trace are
        // byte-identical.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // And the replay reproduces the captured run's traffic: same
        // arrivals, same outcomes.
        assert_eq!(a.arrived, base.arrived);
        assert_eq!(a.completed, base.completed);
        assert_eq!(a.shed, base.shed);
    }
}
