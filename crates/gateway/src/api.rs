//! Request/response JSON schemas for the gateway endpoints.
//!
//! Parsing reuses the eval crate's recursive-descent [`Json`] parser (the
//! same one the extraction cascade uses on model output), and rendering
//! uses the telemetry crate's JSON string escaper — no new dependencies
//! and no second JSON implementation.
//!
//! Score responses carry both decimal `scores` and `score_bits` (the
//! IEEE-754 bit patterns as unsigned integers) so clients can check the
//! bitwise determinism contract without float round-tripping. Non-finite
//! scores render as `null` in the decimal array; the bit pattern is
//! always exact.

use astro_eval::json::Json;
use astro_eval::ExtractionStage;
use astro_mcq::Mcq;
use astro_telemetry::event::write_json_string;
use astro_telemetry::metrics::MetricsSnapshot;
use astro_telemetry::trace::TraceRecord;
use astro_world::FactTier;

/// One `/v1/score` request: score a four-option question with the token
/// method and return per-option readouts.
#[derive(Clone, Debug)]
pub struct ScoreRequest {
    /// Question text.
    pub question: String,
    /// The four options, in presentation order.
    pub options: [String; 4],
    /// Prefix-sharing group (callers batching related questions should
    /// reuse a group id; it maps to the engine's cache group).
    pub group: u64,
    /// Client identity for rate limiting; defaults to the peer address.
    pub client: Option<String>,
}

/// One `/v1/generate` request: run the full-instruct method and return
/// the extracted answer plus the raw completion.
#[derive(Clone, Debug)]
pub struct GenerateRequest {
    /// Question text.
    pub question: String,
    /// The four options, in presentation order.
    pub options: [String; 4],
    /// Prefix-sharing group (see [`ScoreRequest::group`]).
    pub group: u64,
    /// Sampler seed; identical seeds produce identical completions.
    pub seed: u64,
    /// Client identity for rate limiting; defaults to the peer address.
    pub client: Option<String>,
}

fn field_str(obj: &Json, key: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Json::String(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field {key:?} must be a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn field_u64_or(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(Json::Number(n)) if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        Some(_) => Err(format!("field {key:?} must be a non-negative integer")),
    }
}

fn field_options(obj: &Json) -> Result<[String; 4], String> {
    let Some(Json::Array(items)) = obj.get("options") else {
        return Err("field \"options\" must be an array".to_string());
    };
    if items.len() != 4 {
        return Err(format!(
            "field \"options\" must have exactly 4 entries, got {}",
            items.len()
        ));
    }
    let mut out: [String; 4] = Default::default();
    for (dst, item) in out.iter_mut().zip(items) {
        match item {
            Json::String(s) => *dst = s.clone(),
            _ => return Err("every option must be a string".to_string()),
        }
    }
    Ok(out)
}

fn field_client(obj: &Json) -> Result<Option<String>, String> {
    match obj.get("client") {
        None => Ok(None),
        Some(Json::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err("field \"client\" must be a string".to_string()),
    }
}

fn parse_object(body: &str) -> Result<Json, String> {
    let v = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    match v {
        Json::Object(_) => Ok(v),
        _ => Err("request body must be a JSON object".to_string()),
    }
}

impl ScoreRequest {
    /// Parse a request body; errors become 400 responses verbatim.
    pub fn parse(body: &str) -> Result<ScoreRequest, String> {
        let obj = parse_object(body)?;
        Ok(ScoreRequest {
            question: field_str(&obj, "question")?,
            options: field_options(&obj)?,
            group: field_u64_or(&obj, "group", 0)?,
            client: field_client(&obj)?,
        })
    }
}

impl GenerateRequest {
    /// Parse a request body; errors become 400 responses verbatim.
    pub fn parse(body: &str) -> Result<GenerateRequest, String> {
        let obj = parse_object(body)?;
        Ok(GenerateRequest {
            question: field_str(&obj, "question")?,
            options: field_options(&obj)?,
            group: field_u64_or(&obj, "group", 0)?,
            seed: field_u64_or(&obj, "seed", 0)?,
            client: field_client(&obj)?,
        })
    }
}

/// Build the ad-hoc [`Mcq`] the prompt builders consume. Prompt rendering
/// only reads `question`, `options` and (for exemplars, never for the
/// scored question) `answer`, so the placeholder metadata fields cannot
/// leak into the prompt — which keeps socket requests bitwise-parity-safe
/// against the in-process path.
pub fn mcq_from_request(question: &str, options: &[String; 4], group: u64) -> Mcq {
    Mcq {
        id: 0,
        article: group as usize,
        fact: 0,
        question: question.to_string(),
        options: options.clone(),
        answer: 0,
        tier: FactTier::Consensus,
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Render `{"error": ...}` for any non-200 response.
pub fn error_body(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 16);
    out.push_str("{\"error\":");
    write_json_string(&mut out, message);
    out.push('}');
    out
}

/// Render a `/v1/score` success body.
pub fn score_body(scores: &[f32; 4], prediction: usize) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"prediction\":");
    out.push_str(&prediction.to_string());
    out.push_str(",\"scores\":[");
    for (i, s) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(&mut out, f64::from(*s));
    }
    out.push_str("],\"score_bits\":[");
    for (i, s) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_bits().to_string());
    }
    out.push_str("]}");
    out
}

fn stage_name(stage: ExtractionStage) -> &'static str {
    match stage {
        ExtractionStage::Json => "json",
        ExtractionStage::Pattern => "pattern",
        ExtractionStage::Interpreter => "interpreter",
        ExtractionStage::Failed => "failed",
    }
}

/// Render a `/v1/generate` success body.
pub fn generate_body(prediction: Option<usize>, stage: ExtractionStage, raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 64);
    out.push_str("{\"prediction\":");
    match prediction {
        Some(p) => out.push_str(&p.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"stage\":\"");
    out.push_str(stage_name(stage));
    out.push_str("\",\"raw\":");
    write_json_string(&mut out, raw);
    out.push('}');
    out
}

/// Render the `/healthz` body. The original three fields
/// (`status`/`draining`/`queue_depth`) are stable for existing callers;
/// `occupancy` (mean scheduler step fill), `active_seqs` (live
/// scheduler sequences) and `replica` (identity, `""` when
/// standalone) let a cluster router do load-aware routing from the same
/// probe.
pub fn health_body(
    draining: bool,
    queue_depth: usize,
    occupancy: f64,
    active_seqs: i64,
    replica: &str,
) -> String {
    let mut out = format!(
        "{{\"status\":\"{}\",\"draining\":{draining},\"queue_depth\":{queue_depth},\
         \"occupancy\":{occupancy:.4},\"active_seqs\":{active_seqs},\"replica\":",
        if draining { "draining" } else { "ok" }
    );
    write_json_string(&mut out, replica);
    out.push('}');
    out
}

/// Render the `/metricsz` body: the full telemetry registry snapshot.
pub fn metrics_body(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, name);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, name);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, name);
        out.push_str(&format!(":{{\"count\":{}", h.count));
        for (key, v) in [
            ("mean", h.mean),
            ("p50", h.p50),
            ("p95", h.p95),
            ("p99", h.p99),
            ("min", h.min),
            ("max", h.max),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            push_f64(&mut out, v);
        }
        if let Some(ex) = &h.exemplar {
            out.push_str(",\"exemplar\":");
            write_json_string(&mut out, ex);
        }
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// A metric name in Prometheus's grammar: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
/// The registry uses dotted names (`gateway.request_us`); everything
/// outside the grammar becomes `_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

fn push_prom_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Render the registry snapshot in the Prometheus text exposition format
/// (version 0.0.4): counters and gauges as single samples, histograms as
/// summaries with `quantile` labels plus `_count`/`_sum` series, and the
/// max-latency trace exemplar as a comment line analyzers can follow back
/// into the trace ring.
pub fn prometheus_body(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    for (name, v) in &snap.counters {
        let pn = prometheus_name(name);
        out.push_str(&format!("# TYPE {pn} counter\n{pn} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let pn = prometheus_name(name);
        out.push_str(&format!("# TYPE {pn} gauge\n{pn} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        if h.count == 0 {
            continue;
        }
        let pn = prometheus_name(name);
        out.push_str(&format!("# TYPE {pn} summary\n"));
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            out.push_str(&format!("{pn}{{quantile=\"{q}\"}} "));
            push_prom_f64(&mut out, v);
            out.push('\n');
        }
        out.push_str(&format!("{pn}_sum "));
        push_prom_f64(&mut out, h.mean * h.count as f64);
        out.push('\n');
        out.push_str(&format!("{pn}_count {}\n", h.count));
        if let Some(ex) = &h.exemplar {
            out.push_str(&format!("# EXEMPLAR {pn} trace_id={ex}\n"));
        }
    }
    out
}

/// Render the trace block embedded in success bodies: id and per-phase
/// microsecond attribution in recording order.
pub fn trace_object(rec: &TraceRecord) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"id\":\"");
    out.push_str(&rec.id.to_hex());
    out.push_str("\",\"phases\":{");
    for (i, p) in rec.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(&mut out, p.name);
        out.push(':');
        out.push_str(&p.duration_us().to_string());
    }
    out.push_str("}}");
    out
}

/// Splice `,"trace":{...}` into a complete JSON-object body, just before
/// the closing brace. Callers pass the in-flight trace snapshot taken
/// after the last pre-write phase was recorded.
pub fn body_with_trace(body: &str, rec: &TraceRecord) -> String {
    let Some(stripped) = body.strip_suffix('}') else {
        return body.to_string();
    };
    format!("{stripped},\"trace\":{}}}", trace_object(rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> String {
        "[\"a\",\"b\",\"c\",\"d\"]".to_string()
    }

    #[test]
    fn score_request_round_trip() {
        let body = format!(
            "{{\"question\":\"q?\",\"options\":{},\"group\":3,\"client\":\"c1\"}}",
            options()
        );
        let req = ScoreRequest::parse(&body).unwrap();
        assert_eq!(req.question, "q?");
        assert_eq!(req.options[2], "c");
        assert_eq!(req.group, 3);
        assert_eq!(req.client.as_deref(), Some("c1"));
    }

    #[test]
    fn generate_request_defaults_group_and_seed() {
        let body = format!("{{\"question\":\"q?\",\"options\":{}}}", options());
        let req = GenerateRequest::parse(&body).unwrap();
        assert_eq!(req.group, 0);
        assert_eq!(req.seed, 0);
        assert_eq!(req.client, None);
    }

    #[test]
    fn parse_rejections_are_specific() {
        for (body, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "JSON object"),
            ("{\"options\":[\"a\",\"b\",\"c\",\"d\"]}", "question"),
            ("{\"question\":\"q\",\"options\":[\"a\"]}", "exactly 4"),
            ("{\"question\":\"q\",\"options\":[1,2,3,4]}", "string"),
            (
                "{\"question\":\"q\",\"options\":[\"a\",\"b\",\"c\",\"d\"],\"group\":-1}",
                "group",
            ),
            (
                "{\"question\":\"q\",\"options\":[\"a\",\"b\",\"c\",\"d\"],\"group\":1.5}",
                "group",
            ),
        ] {
            let err = ScoreRequest::parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn score_body_is_parseable_and_bit_exact() {
        let scores = [-1.5f32, f32::NEG_INFINITY, 0.25, -0.125];
        let body = score_body(&scores, 2);
        let v = Json::parse(&body).unwrap();
        assert!(matches!(v.get("prediction"), Some(Json::Number(n)) if *n == 2.0));
        let Some(Json::Array(bits)) = v.get("score_bits") else {
            panic!("score_bits missing");
        };
        for (bit, s) in bits.iter().zip(scores.iter()) {
            let Json::Number(n) = bit else { panic!("bit not number") };
            assert_eq!(*n as u32, s.to_bits());
        }
        // Non-finite decimal renders as null but the bits stay exact.
        assert!(matches!(
            v.get("scores").and_then(|s| match s {
                Json::Array(a) => a.get(1),
                _ => None,
            }),
            Some(Json::Null)
        ));
    }

    #[test]
    fn generate_body_escapes_raw_output() {
        let body = generate_body(Some(1), ExtractionStage::Pattern, "line\n\"quote\"");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("stage").and_then(Json::as_str), Some("pattern"));
        assert_eq!(v.get("raw").and_then(Json::as_str), Some("line\n\"quote\""));
    }

    #[test]
    fn health_and_error_bodies_parse() {
        assert!(Json::parse(&health_body(true, 7, 3.25, 2, "replica-1")).is_ok());
        let v = Json::parse(&error_body("bad \"thing\"")).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad \"thing\""));
    }

    #[test]
    fn metrics_body_parses_with_live_registry() {
        astro_telemetry::metrics::counter("gateway.test.api").add(2);
        astro_telemetry::metrics::histogram("gateway.test.hist").observe(1.0);
        let snap = astro_telemetry::metrics::snapshot();
        let v = Json::parse(&metrics_body(&snap)).unwrap();
        assert!(v.get("counters").is_some());
        assert!(v.get("histograms").is_some());
    }

    #[test]
    fn metrics_body_carries_histogram_exemplars() {
        astro_telemetry::metrics::histogram("gateway.test.exemplar")
            .observe_with_exemplar(7.0, 0xabcd);
        let snap = astro_telemetry::metrics::snapshot();
        let body = metrics_body(&snap);
        let v = Json::parse(&body).unwrap();
        let ex = v
            .get("histograms")
            .and_then(|h| h.get("gateway.test.exemplar"))
            .and_then(|h| h.get("exemplar"))
            .and_then(Json::as_str)
            .expect("exemplar field present");
        assert_eq!(ex, "0000000000000000000000000000abcd");
    }

    #[test]
    fn prometheus_name_sanitizes_to_the_grammar() {
        assert_eq!(prometheus_name("gateway.request_us"), "gateway_request_us");
        assert_eq!(prometheus_name("gateway.endpoint./v1/score.us"), "gateway_endpoint__v1_score_us");
        assert_eq!(prometheus_name("9lives"), "_lives");
    }

    #[test]
    fn prometheus_body_renders_all_metric_kinds() {
        astro_telemetry::metrics::counter("gateway.test.prom_counter").add(3);
        astro_telemetry::metrics::gauge("gateway.test.prom_gauge").set(-2);
        let h = astro_telemetry::metrics::histogram("gateway.test.prom_hist");
        h.observe(10.0);
        h.observe_with_exemplar(30.0, 0xfeed);
        let body = prometheus_body(&astro_telemetry::metrics::snapshot());
        assert!(body.contains("# TYPE gateway_test_prom_counter counter\n"), "{body}");
        assert!(body.contains("gateway_test_prom_counter 3\n"), "{body}");
        assert!(body.contains("# TYPE gateway_test_prom_gauge gauge\n"), "{body}");
        assert!(body.contains("gateway_test_prom_gauge -2\n"), "{body}");
        assert!(body.contains("# TYPE gateway_test_prom_hist summary\n"), "{body}");
        assert!(body.contains("gateway_test_prom_hist{quantile=\"0.5\"}"), "{body}");
        assert!(body.contains("gateway_test_prom_hist{quantile=\"0.99\"}"), "{body}");
        assert!(body.contains("gateway_test_prom_hist_sum 40\n"), "{body}");
        assert!(body.contains("gateway_test_prom_hist_count 2\n"), "{body}");
        assert!(
            body.contains("# EXEMPLAR gateway_test_prom_hist trace_id=000000000000000000000000000"),
            "{body}"
        );
    }

    #[test]
    fn trace_block_splices_into_success_bodies() {
        use astro_telemetry::trace::{self, TraceId};
        let id = TraceId(0x5005_0001);
        assert!(trace::start(id, "gateway./v1/score", None, 100));
        trace::phase(id, "recv", 100, 140);
        trace::phase(id, "queue_wait", 140, 200);
        let rec = trace::inflight_snapshot(id).unwrap();
        let body = body_with_trace(&score_body(&[0.0, 1.0, 2.0, 3.0], 3), &rec);
        let v = Json::parse(&body).unwrap();
        let t = v.get("trace").expect("trace block");
        assert_eq!(
            t.get("id").and_then(Json::as_str),
            Some(id.to_hex().as_str())
        );
        let phases = t.get("phases").expect("phases object");
        assert!(matches!(phases.get("recv"), Some(Json::Number(n)) if *n == 40.0));
        assert!(matches!(phases.get("queue_wait"), Some(Json::Number(n)) if *n == 60.0));
        // Original payload is intact next to the spliced block.
        assert!(matches!(v.get("prediction"), Some(Json::Number(n)) if *n == 3.0));
        trace::finish(id, 200);
    }
}
