//! JSON (de)serialization for [`ExperimentSpec`] — the on-disk form the
//! CLI `sweep` subcommand reads and writes — plus the crate's shared
//! JSON `Value` writer that [`export`](crate::export) reuses for
//! result emission, so there is exactly one JSON emitter in the tree.
//!
//! # Examples
//!
//! ```
//! use ntc_datacenter::{spec_json, ExperimentSpec};
//!
//! let spec = ExperimentSpec::default_sweep();
//! let text = spec_json::to_json(&spec);
//! assert_eq!(spec_json::from_json(&text).unwrap(), spec);
//! ```

use crate::backend::BackendSpec;
use crate::engine::{AblationFlags, ExperimentSpec, FleetSpec, PredictorSpec};
use crate::fault::FailurePolicy;

/// Renders `spec` as pretty-printed JSON.
pub fn to_json(spec: &ExperimentSpec) -> String {
    let fleets = spec.fleets.iter().map(fleet_value).collect();
    let policies = spec
        .policies
        .iter()
        .map(|&p| Value::String(p.tag().to_string()))
        .collect();
    let servers = spec
        .servers
        .iter()
        .map(|&s| Value::String(s.tag().to_string()))
        .collect();
    let floors = spec
        .qos_floors_mhz
        .iter()
        .map(|f| match f {
            Some(mhz) => Value::Number(*mhz),
            None => Value::Null,
        })
        .collect();
    let scales = spec
        .static_power_scales
        .iter()
        .map(|&s| Value::Number(s))
        .collect();
    let backends = spec
        .backends
        .iter()
        .map(|&b| Value::String(b.tag().to_string()))
        .collect();
    Value::Object(vec![
        ("name".into(), Value::String(spec.name.clone())),
        ("fleets".into(), Value::Array(fleets)),
        ("policies".into(), Value::Array(policies)),
        ("servers".into(), Value::Array(servers)),
        ("qos_floors_mhz".into(), Value::Array(floors)),
        ("static_power_scales".into(), Value::Array(scales)),
        ("backends".into(), Value::Array(backends)),
        (
            "predictor".into(),
            Value::String(spec.predictor.tag().to_string()),
        ),
        ("max_servers".into(), Value::Number(spec.max_servers as f64)),
        (
            "correlation_only".into(),
            Value::Bool(spec.ablation.correlation_only),
        ),
        (
            "failure_policy".into(),
            Value::String(spec.failure_policy.tag().to_string()),
        ),
    ])
    .render()
}

fn fleet_value(fleet: &FleetSpec) -> Value {
    Value::Object(vec![
        ("num_vms".into(), Value::Number(fleet.num_vms as f64)),
        ("seed".into(), Value::Number(fleet.seed as f64)),
        ("weeks".into(), Value::Number(fleet.weeks as f64)),
    ])
}

fn parse_fleet(val: &Value, path: &str) -> Result<FleetSpec, String> {
    let mut fleet = FleetSpec {
        num_vms: 0,
        seed: 0,
        weeks: 2,
    };
    for (fkey, fval) in val.as_object(path)? {
        match fkey.as_str() {
            "num_vms" => fleet.num_vms = fval.as_usize(&format!("{path}.num_vms"))?,
            "seed" => fleet.seed = fval.as_u64(&format!("{path}.seed"))?,
            "weeks" => fleet.weeks = fval.as_usize(&format!("{path}.weeks"))?,
            other => return Err(format!("unknown field {path}.{other}")),
        }
    }
    Ok(fleet)
}

/// Parses a spec from JSON text.
///
/// Unknown fields are rejected, missing fields report their path. A
/// legacy single-fleet spec (`"fleet": {...}` instead of the
/// `"fleets": [...]` axis, no `static_power_scales`) parses into the
/// equivalent one-fleet, scale-1.0 sweep, and a spec without a
/// `backends` array (or with an empty one) defaults to the analytic
/// backend.
///
/// # Errors
///
/// Returns a human-readable message describing the first syntax or
/// schema problem encountered.
pub fn from_json(text: &str) -> Result<ExperimentSpec, String> {
    let value = parse_value(text)?;
    let obj = value.as_object("spec")?;
    let mut spec = ExperimentSpec {
        name: String::new(),
        fleets: Vec::new(),
        static_power_scales: Vec::new(),
        policies: Vec::new(),
        servers: Vec::new(),
        qos_floors_mhz: Vec::new(),
        backends: Vec::new(),
        predictor: PredictorSpec::Oracle,
        max_servers: 0,
        ablation: AblationFlags::default(),
        // Legacy specs predate the failure model: keep going, as the
        // old engine effectively promised for clean sweeps.
        failure_policy: FailurePolicy::default(),
    };
    let mut seen_fleet = false;
    let mut seen_fleets = false;
    for (key, val) in obj {
        match key.as_str() {
            "name" => spec.name = val.as_string("name")?.to_string(),
            // Legacy single-fleet form, kept parseable forever.
            "fleet" => {
                seen_fleet = true;
                spec.fleets.push(parse_fleet(val, "fleet")?);
            }
            "fleets" => {
                seen_fleets = true;
                for (i, item) in val.as_array("fleets")?.iter().enumerate() {
                    spec.fleets
                        .push(parse_fleet(item, &format!("fleets[{i}]"))?);
                }
            }
            "policies" => {
                for (i, item) in val.as_array("policies")?.iter().enumerate() {
                    let tag = item.as_string(&format!("policies[{i}]"))?;
                    spec.policies.push(tag.parse()?);
                }
            }
            "servers" => {
                for (i, item) in val.as_array("servers")?.iter().enumerate() {
                    let tag = item.as_string(&format!("servers[{i}]"))?;
                    spec.servers.push(tag.parse()?);
                }
            }
            "qos_floors_mhz" => {
                for (i, item) in val.as_array("qos_floors_mhz")?.iter().enumerate() {
                    spec.qos_floors_mhz.push(match item {
                        Value::Null => None,
                        other => Some(other.as_f64(&format!("qos_floors_mhz[{i}]"))?),
                    });
                }
            }
            "static_power_scales" => {
                for (i, item) in val.as_array("static_power_scales")?.iter().enumerate() {
                    spec.static_power_scales
                        .push(item.as_f64(&format!("static_power_scales[{i}]"))?);
                }
            }
            "backends" => {
                for (i, item) in val.as_array("backends")?.iter().enumerate() {
                    let tag = item.as_string(&format!("backends[{i}]"))?;
                    spec.backends.push(tag.parse()?);
                }
            }
            "predictor" => spec.predictor = val.as_string("predictor")?.parse()?,
            "max_servers" => spec.max_servers = val.as_usize("max_servers")?,
            "correlation_only" => {
                spec.ablation.correlation_only = val.as_bool("correlation_only")?
            }
            "failure_policy" => spec.failure_policy = val.as_string("failure_policy")?.parse()?,
            other => return Err(format!("unknown field {other}")),
        }
    }
    if seen_fleet && seen_fleets {
        return Err("specify either fleet (legacy) or fleets, not both".to_string());
    }
    if !seen_fleet && !seen_fleets {
        return Err("missing field fleets (or legacy fleet)".to_string());
    }
    if spec.qos_floors_mhz.is_empty() {
        spec.qos_floors_mhz.push(None);
    }
    if spec.static_power_scales.is_empty() {
        spec.static_power_scales.push(1.0);
    }
    if spec.backends.is_empty() {
        // Legacy specs predate the backend axis: analytic accounting.
        spec.backends.push(BackendSpec::Analytic);
    }
    Ok(spec)
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Parses arbitrary JSON text into a [`Value`] tree (crate-internal:
/// the export tests use it to check emitted JSON is well-formed).
pub(crate) fn parse_value(text: &str) -> Result<Value, String> {
    Parser::new(text).parse()
}

/// The JSON subset the spec and export formats need. Doubles as the
/// crate's one JSON *writer*: build a tree, [`Value::render`] it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    pub(crate) fn as_object(&self, path: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Object(fields) => Ok(fields),
            other => Err(format!(
                "{path} must be an object, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_array(&self, path: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(format!(
                "{path} must be an array, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_string(&self, path: &str) -> Result<&str, String> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(format!(
                "{path} must be a string, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_bool(&self, path: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!(
                "{path} must be a boolean, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_f64(&self, path: &str) -> Result<f64, String> {
        match self {
            Value::Number(n) => Ok(*n),
            other => Err(format!(
                "{path} must be a number, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_u64(&self, path: &str) -> Result<u64, String> {
        let n = self.as_f64(path)?;
        if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
            return Err(format!("{path} must be a non-negative integer, got {n}"));
        }
        Ok(n as u64)
    }

    pub(crate) fn as_usize(&self, path: &str) -> Result<usize, String> {
        let n = self.as_u64(path)?;
        usize::try_from(n).map_err(|_| format!("{path} is too large"))
    }

    /// Whether this value renders on one line (no nested structure).
    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Array(_) | Value::Object(_))
    }

    /// Pretty-prints the tree: objects multiline with two-space
    /// indentation, scalar arrays inline, structured arrays one item
    /// per line. Output ends with a newline and round-trips through
    /// the parser (f64 `Display` never emits exponents).
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        let pad = |n: usize| "  ".repeat(n);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Value::String(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                } else if items.iter().all(Value::is_scalar) {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad(indent + 1));
                        item.write(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&pad(indent));
                    out.push(']');
                }
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad(indent + 1));
                    let _ = write!(out, "\"{}\": ", escape(key));
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad(indent));
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting the parser accepts. The spec and export
/// formats nest three levels deep; the bound keeps the recursive descent
/// (and the recursive drop of the tree) off the end of the stack on
/// hostile input.
const MAX_DEPTH: usize = 64;

/// Minimal recursive-descent JSON parser (no escapes beyond the ones
/// [`escape`] emits, no exponents in the grammar we accept — plenty for
/// the spec format, zero dependencies). Linear in the input, and nesting
/// is bounded by [`MAX_DEPTH`], so every input yields a value or an
/// `Err`.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn parse(mut self) -> Result<Value, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Value::String(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.peek()?;
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash in one step. Both are ASCII, so the run is whole
            // UTF-8 scalars and is validated once, keeping the scan
            // linear in the string's length.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let plain = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                .map_err(|_| "invalid UTF-8".to_string())?;
            out.push_str(plain);
            self.pos += run;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    let escaped = self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b't' => '\t',
                        other => return Err(format!("unsupported escape \\{}", *other as char)),
                    });
                    self.pos += 2;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || *b == b'.')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PolicySpec;

    #[test]
    fn round_trips_the_default_sweep() {
        let spec = ExperimentSpec::default_sweep();
        let text = to_json(&spec);
        assert_eq!(from_json(&text).unwrap(), spec);
    }

    #[test]
    fn round_trips_every_knob() {
        let mut spec = ExperimentSpec::default_sweep();
        spec.name = "full \"axis\" sweep".to_string();
        spec.policies.push(PolicySpec::LoadBalance);
        spec.qos_floors_mhz = vec![None, Some(1200.0), Some(1800.0)];
        spec.predictor = PredictorSpec::Arima;
        spec.ablation.correlation_only = true;
        let text = to_json(&spec);
        assert_eq!(from_json(&text).unwrap(), spec);
    }

    #[test]
    fn round_trips_fleet_set_and_scale_axes() {
        let mut spec = ExperimentSpec::default_sweep().with_seeds(&[1, 2, 3]);
        spec.fleets[2].num_vms = 96; // a size sweep mixed into the set
        spec.fleets[2].weeks = 3;
        spec.static_power_scales = vec![0.25, 1.0, 1.5];
        let text = to_json(&spec);
        assert_eq!(from_json(&text).unwrap(), spec);
    }

    #[test]
    fn round_trips_the_backend_axis() {
        let mut spec = ExperimentSpec::default_sweep();
        spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
        let text = to_json(&spec);
        assert!(text.contains("\"backends\""), "{text}");
        assert_eq!(from_json(&text).unwrap(), spec);
        spec.backends = vec![BackendSpec::Archsim];
        assert_eq!(from_json(&to_json(&spec)).unwrap(), spec);
    }

    #[test]
    fn round_trips_the_failure_policy() {
        let mut spec = ExperimentSpec::default_sweep();
        spec.failure_policy = FailurePolicy::FailFast;
        let text = to_json(&spec);
        assert!(text.contains("\"failure_policy\": \"fail_fast\""), "{text}");
        assert_eq!(from_json(&text).unwrap(), spec);
    }

    #[test]
    fn missing_failure_policy_defaults_to_keep_going() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}}"#;
        let spec = from_json(text).unwrap();
        assert_eq!(spec.failure_policy, FailurePolicy::KeepGoing);
    }

    #[test]
    fn rejects_unknown_failure_policy() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "failure_policy": "retry"}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("retry"), "{err}");
    }

    #[test]
    fn legacy_single_fleet_spec_still_parses() {
        // The exact shape PR 1's to_json emitted: "fleet" object, no
        // fleets/static_power_scales arrays.
        let text = concat!(
            "{\n",
            "  \"name\": \"policy-comparison\",\n",
            "  \"fleet\": {\"num_vms\": 48, \"seed\": 2024, \"weeks\": 2},\n",
            "  \"policies\": [\"epact\", \"coat\", \"coat_opt\"],\n",
            "  \"servers\": [\"ntc\", \"conventional\"],\n",
            "  \"qos_floors_mhz\": [null],\n",
            "  \"predictor\": \"oracle\",\n",
            "  \"max_servers\": 600,\n",
            "  \"correlation_only\": false\n",
            "}\n"
        );
        let spec = from_json(text).unwrap();
        assert_eq!(spec, ExperimentSpec::default_sweep());
        assert_eq!(spec.fleets.len(), 1);
        assert_eq!(spec.static_power_scales, vec![1.0]);
        // No "backends" field in legacy JSON: analytic accounting.
        assert_eq!(spec.backends, vec![BackendSpec::Analytic]);
    }

    #[test]
    fn empty_backend_list_defaults_to_analytic() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "backends": []}"#;
        let spec = from_json(text).unwrap();
        assert_eq!(spec.backends, vec![BackendSpec::Analytic]);
    }

    #[test]
    fn rejects_unknown_backend() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "backends": ["gem5"]}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("gem5"), "{err}");
    }

    #[test]
    fn rejects_both_fleet_forms_at_once() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "fleets": [{"num_vms": 4, "seed": 1}]}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("not both"), "{err}");
    }

    #[test]
    fn rejects_unknown_fields() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "frobnicate": 3}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
    }

    #[test]
    fn rejects_unknown_policy() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "policies": ["greedy"]}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("greedy"), "{err}");
    }

    #[test]
    fn rejects_missing_fleet() {
        let err = from_json(r#"{"name": "x"}"#).unwrap_err();
        assert!(err.contains("fleet"), "{err}");
    }

    #[test]
    fn rejects_syntax_errors() {
        assert!(from_json("{").is_err());
        assert!(from_json(r#"{"name": }"#).is_err());
        assert!(from_json("{} trailing").is_err());
        assert!(from_json(r#"{"fleet": {"num_vms": -3, "seed": 1}}"#).is_err());
    }

    #[test]
    fn rejects_nesting_past_the_depth_bound() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        let err = parse_value(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Far too deep to recurse through: an error, not a stack overflow.
        let err = from_json(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let err = from_json(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Multi-byte scalars and escapes between long plain runs.
        let name = format!("{}\"é€𝄞\n{}", "x".repeat(200_000), "ü".repeat(50_000));
        let mut spec = ExperimentSpec::default_sweep();
        spec.name = name.clone();
        assert_eq!(from_json(&to_json(&spec)).unwrap().name, name);
        assert!(from_json(&format!("{{\"name\": \"{}", "y".repeat(100_000))).is_err());
    }

    #[test]
    fn empty_floor_list_defaults_to_no_floor() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "qos_floors_mhz": []}"#;
        let spec = from_json(text).unwrap();
        assert_eq!(spec.qos_floors_mhz, vec![None]);
    }

    #[test]
    fn empty_scale_list_defaults_to_unit_scale() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "static_power_scales": []}"#;
        let spec = from_json(text).unwrap();
        assert_eq!(spec.static_power_scales, vec![1.0]);
    }

    #[test]
    fn value_renderer_round_trips_structures() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Number(1.5), Value::Null]),
            ),
            (
                "b".into(),
                Value::Array(vec![Value::Object(vec![(
                    "k".into(),
                    Value::String("x\"y".into()),
                )])]),
            ),
            ("c".into(), Value::Object(vec![])),
            ("d".into(), Value::Array(vec![])),
            ("e".into(), Value::Bool(true)),
        ]);
        let text = v.render();
        assert_eq!(parse_value(&text).unwrap(), v);
    }
}
