//! Solver parameter files.
//!
//! The paper's artifact drives runs with JSON parameter files
//! (`BSSN_GR/pars/q1.par.json`). We support the same workflow with a
//! small built-in parser for the flat JSON subset those files use
//! (string/number/bool values, no nesting) — kept dependency-free on
//! purpose (see DESIGN.md's dependency policy).

use crate::backend::RhsKind;
use crate::solver::{ConfigError, SolverConfig};
use crate::supervisor::SupervisorConfig;
use gw_bssn::BssnParams;
use gw_expr::schedule::ScheduleStrategy;
use std::collections::HashMap;

/// A typed parameter-file failure, so callers (notably the
/// `bssn_solver` binary's exit codes) can distinguish an unreadable file
/// from a malformed one from a validly-parsed-but-invalid configuration.
#[derive(Clone, Debug)]
pub enum ParamError {
    /// The file could not be read.
    Io { path: String, error: String },
    /// The text is not the supported flat-JSON subset.
    Parse(String),
    /// A run parameter is out of range or inconsistent.
    Invalid(String),
    /// The embedded [`SolverConfig`] is invalid.
    Config(ConfigError),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::Io { path, error } => write!(f, "{path}: {error}"),
            ParamError::Parse(e) => write!(f, "parse error: {e}"),
            ParamError::Invalid(e) => write!(f, "{e}"),
            ParamError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParamError {}

impl From<ConfigError> for ParamError {
    fn from(e: ConfigError) -> Self {
        ParamError::Config(e)
    }
}

/// A parsed flat JSON object.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Number(f64),
    Bool(bool),
    Str(String),
}

/// Parse a flat JSON object (`{"key": value, ...}` with scalar values).
pub fn parse_flat_json(text: &str) -> Result<HashMap<String, JsonValue>, String> {
    let mut out = HashMap::new();
    let s = text.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.trim_end().strip_suffix('}'))
        .ok_or("expected a JSON object {...}")?;
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // Key.
        rest =
            rest.strip_prefix('"').ok_or_else(|| format!("expected quoted key at: {rest:.20}"))?;
        let kq = rest.find('"').ok_or("unterminated key")?;
        let key = rest[..kq].to_string();
        rest = rest[kq + 1..].trim_start();
        rest = rest.strip_prefix(':').ok_or("expected ':' after key")?.trim_start();
        // Value.
        let (value, consumed) = if let Some(r2) = rest.strip_prefix('"') {
            let vq = r2.find('"').ok_or("unterminated string value")?;
            (JsonValue::Str(r2[..vq].to_string()), vq + 2)
        } else if rest.starts_with("true") {
            (JsonValue::Bool(true), 4)
        } else if rest.starts_with("false") {
            (JsonValue::Bool(false), 5)
        } else {
            let end = rest
                .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
                .unwrap_or(rest.len());
            let num: f64 =
                rest[..end].parse().map_err(|e| format!("bad number '{}': {e}", &rest[..end]))?;
            (JsonValue::Number(num), end)
        };
        out.insert(key, value);
        rest = rest[consumed..].trim_start();
        if let Some(r2) = rest.strip_prefix(',') {
            rest = r2.trim_start();
        } else {
            break;
        }
    }
    Ok(out)
}

/// Full run description parsed from a par file.
#[derive(Clone, Debug)]
pub struct RunParams {
    /// Mass ratio of the binary (puncture initial data).
    pub q: f64,
    /// Coordinate separation.
    pub separation: f64,
    /// Domain half-width.
    pub domain_half: f64,
    pub base_level: u8,
    pub finest_level: u8,
    pub steps: usize,
    pub extract_every: usize,
    pub extract_radius: f64,
    pub config: SolverConfig,
    /// Run under the fault-tolerant supervisor (`"supervised": true`).
    pub supervised: bool,
    /// Supervisor settings (health cadence, checkpoints, degradation).
    pub supervisor: SupervisorConfig,
    /// Simulated ranks for a distributed run (`"ranks"`; 1 = single-rank).
    pub ranks: usize,
    /// Reliable-delivery retransmit budget (`"comm.max_retransmits"`).
    pub max_retransmits: u32,
    /// Liveness-poll cadence in milliseconds (`"comm.heartbeat_interval"`).
    pub heartbeat_interval_ms: f64,
    /// Receive deadline in milliseconds (`"comm.recv_timeout"`).
    pub recv_timeout_ms: f64,
    /// Coordinated multi-rank snapshots (`"checkpoint.distributed"`);
    /// shards + manifest go under the supervisor's `checkpoint_dir`.
    pub checkpoint_distributed: bool,
    /// Observability trace sink (`"obs.profile"`): write a Chrome-trace
    /// JSON profile of the run to this path. `None` (the default) leaves
    /// instrumentation disabled. The `--profile <path>` CLI flag
    /// overrides this key.
    pub profile: Option<String>,
}

impl Default for RunParams {
    fn default() -> Self {
        Self {
            q: 1.0,
            separation: 6.0,
            domain_half: 16.0,
            base_level: 2,
            finest_level: 5,
            steps: 8,
            extract_every: 2,
            extract_radius: 8.0,
            config: SolverConfig::default(),
            supervised: false,
            supervisor: SupervisorConfig::default(),
            ranks: 1,
            max_retransmits: 8,
            heartbeat_interval_ms: 50.0,
            recv_timeout_ms: 10_000.0,
            checkpoint_distributed: false,
            profile: None,
        }
    }
}

impl RunParams {
    /// Parse a par file's text.
    pub fn from_json(text: &str) -> Result<RunParams, ParamError> {
        let map = parse_flat_json(text).map_err(ParamError::Parse)?;
        let mut p = RunParams::default();
        let num = |m: &HashMap<String, JsonValue>, k: &str, d: f64| -> Result<f64, ParamError> {
            match m.get(k) {
                None => Ok(d),
                Some(JsonValue::Number(v)) => Ok(*v),
                Some(other) => {
                    Err(ParamError::Invalid(format!("{k}: expected number, got {other:?}")))
                }
            }
        };
        p.q = num(&map, "q", p.q)?;
        p.separation = num(&map, "separation", p.separation)?;
        p.domain_half = num(&map, "domain_half", p.domain_half)?;
        p.base_level = num(&map, "base_level", p.base_level as f64)? as u8;
        p.finest_level = num(&map, "finest_level", p.finest_level as f64)? as u8;
        p.steps = num(&map, "steps", p.steps as f64)? as usize;
        p.extract_every = num(&map, "extract_every", p.extract_every as f64)? as usize;
        p.extract_radius = num(&map, "extract_radius", p.extract_radius)?;
        let mut bssn = BssnParams::default();
        bssn.eta = num(&map, "eta", bssn.eta)?;
        bssn.ko_sigma = num(&map, "ko_sigma", bssn.ko_sigma)?;
        bssn.chi_floor = num(&map, "chi_floor", bssn.chi_floor)?;
        p.config.params = bssn;
        p.config.courant = num(&map, "courant", p.config.courant)?;
        p.config.threads = num(&map, "threads", p.config.threads as f64)? as usize;
        p.config.extract_every = p.extract_every;
        if let Some(JsonValue::Bool(g)) = map.get("use_gpu") {
            p.config.use_gpu = *g;
        }
        if let Some(JsonValue::Str(r)) = map.get("rhs") {
            p.config.rhs_kind = match r.as_str() {
                "pointwise" => RhsKind::Pointwise,
                "sympygr" => RhsKind::Generated(ScheduleStrategy::CseTopo),
                "binary-reduce" => RhsKind::Generated(ScheduleStrategy::BinaryReduce),
                "staged" | "staged+cse" => RhsKind::Generated(ScheduleStrategy::StagedCse),
                other => return Err(ParamError::Invalid(format!("unknown rhs kind '{other}'"))),
            };
        }
        if let Some(JsonValue::Bool(s)) = map.get("supervised") {
            p.supervised = *s;
        }
        let sup = &mut p.supervisor;
        sup.check_every = num(&map, "check_every", sup.check_every as f64)? as u64;
        sup.checkpoint_every = num(&map, "checkpoint_every", sup.checkpoint_every as f64)? as u64;
        sup.keep_checkpoints = num(&map, "keep_checkpoints", sup.keep_checkpoints as f64)? as usize;
        if let Some(JsonValue::Str(d)) = map.get("checkpoint_dir") {
            sup.checkpoint_dir = Some(d.clone());
        }
        sup.thresholds.hamiltonian_max =
            num(&map, "hamiltonian_max", sup.thresholds.hamiltonian_max)?;
        // Puncture runs legitimately let chi dip slightly negative (the
        // RHS applies chi_floor pointwise); par files can widen the band.
        sup.thresholds.chi_min = num(&map, "chi_min", sup.thresholds.chi_min)?;
        sup.thresholds.alpha_min = num(&map, "alpha_min", sup.thresholds.alpha_min)?;
        sup.degradation.max_retries =
            num(&map, "max_retries", sup.degradation.max_retries as f64)? as u32;
        sup.degradation.courant_factor =
            num(&map, "retry_courant_factor", sup.degradation.courant_factor)?;
        sup.degradation.ko_boost = num(&map, "retry_ko_boost", sup.degradation.ko_boost)?;
        p.ranks = num(&map, "ranks", p.ranks as f64)? as usize;
        p.max_retransmits = num(&map, "comm.max_retransmits", p.max_retransmits as f64)? as u32;
        p.heartbeat_interval_ms = num(&map, "comm.heartbeat_interval", p.heartbeat_interval_ms)?;
        p.recv_timeout_ms = num(&map, "comm.recv_timeout", p.recv_timeout_ms)?;
        if let Some(JsonValue::Bool(b)) = map.get("checkpoint.distributed") {
            p.checkpoint_distributed = *b;
        }
        if let Some(JsonValue::Str(path)) = map.get("obs.profile") {
            p.profile = Some(path.clone());
        }
        p.validate()?;
        Ok(p)
    }

    /// The comm-layer configuration these parameters describe.
    pub fn world_config(&self) -> gw_comm::world::WorldConfig {
        gw_comm::world::WorldConfig {
            max_retransmits: self.max_retransmits,
            heartbeat_interval: std::time::Duration::from_secs_f64(
                self.heartbeat_interval_ms / 1e3,
            ),
            recv_timeout: std::time::Duration::from_secs_f64(self.recv_timeout_ms / 1e3),
            ..gw_comm::world::WorldConfig::default()
        }
    }

    /// Reject parameter combinations that cannot run: levels out of
    /// range, non-positive geometry, extraction sphere outside the
    /// domain, or an invalid [`SolverConfig`].
    pub fn validate(&self) -> Result<(), ParamError> {
        let invalid = |msg: String| Err(ParamError::Invalid(msg));
        if !(self.q > 0.0 && self.q.is_finite()) {
            return invalid(format!("mass ratio q must be positive and finite, got {}", self.q));
        }
        if !(self.separation > 0.0 && self.separation.is_finite()) {
            return invalid(format!("separation must be positive, got {}", self.separation));
        }
        if !(self.domain_half > 0.0 && self.domain_half.is_finite()) {
            return invalid(format!("domain_half must be positive, got {}", self.domain_half));
        }
        if self.base_level > self.finest_level {
            return invalid(format!(
                "base_level ({}) must not exceed finest_level ({})",
                self.base_level, self.finest_level
            ));
        }
        if self.finest_level as u32 > gw_octree::MAX_LEVEL as u32 {
            return invalid(format!(
                "finest_level ({}) exceeds the octree MAX_LEVEL ({})",
                self.finest_level,
                gw_octree::MAX_LEVEL
            ));
        }
        if !(self.extract_radius > 0.0 && self.extract_radius < self.domain_half) {
            return invalid(format!(
                "extract_radius ({}) must lie strictly inside the domain (half-width {})",
                self.extract_radius, self.domain_half
            ));
        }
        if self.supervisor.check_every == 0 {
            return invalid("check_every must be >= 1 (steps between health checks)".into());
        }
        let d = &self.supervisor.degradation;
        if !(d.courant_factor > 0.0 && d.courant_factor <= 1.0) {
            return invalid(format!(
                "retry_courant_factor must be in (0, 1], got {}",
                d.courant_factor
            ));
        }
        if !d.ko_boost.is_finite() || d.ko_boost < 0.0 {
            return invalid(format!("retry_ko_boost must be finite and >= 0, got {}", d.ko_boost));
        }
        let t = &self.supervisor.thresholds;
        if !t.chi_min.is_finite() || !t.alpha_min.is_finite() {
            return invalid(format!(
                "chi_min / alpha_min must be finite, got {} / {}",
                t.chi_min, t.alpha_min
            ));
        }
        if self.supervisor.thresholds.hamiltonian_max <= 0.0
            || self.supervisor.thresholds.hamiltonian_max.is_nan()
        {
            return invalid(format!(
                "hamiltonian_max must be positive, got {}",
                self.supervisor.thresholds.hamiltonian_max
            ));
        }
        if self.ranks == 0 {
            return invalid("ranks must be >= 1".into());
        }
        if !(self.heartbeat_interval_ms > 0.0 && self.heartbeat_interval_ms.is_finite()) {
            return invalid(format!(
                "comm.heartbeat_interval must be positive milliseconds, got {}",
                self.heartbeat_interval_ms
            ));
        }
        if !(self.recv_timeout_ms > 0.0 && self.recv_timeout_ms.is_finite()) {
            return invalid(format!(
                "comm.recv_timeout must be positive milliseconds, got {}",
                self.recv_timeout_ms
            ));
        }
        if self.checkpoint_distributed && self.supervisor.checkpoint_dir.is_none() {
            return invalid(
                "checkpoint.distributed requires checkpoint_dir (the snapshot root)".into(),
            );
        }
        self.config.validate()?;
        Ok(())
    }

    /// Load from a file path.
    pub fn from_file(path: &str) -> Result<RunParams, ParamError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ParamError::Io { path: path.to_string(), error: e.to_string() })?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_json() {
        let m = parse_flat_json(r#"{ "q": 2.0, "use_gpu": true, "rhs": "staged", "steps": 16 }"#)
            .unwrap();
        assert_eq!(m["q"], JsonValue::Number(2.0));
        assert_eq!(m["use_gpu"], JsonValue::Bool(true));
        assert_eq!(m["rhs"], JsonValue::Str("staged".into()));
        assert_eq!(m["steps"], JsonValue::Number(16.0));
    }

    #[test]
    fn run_params_from_json() {
        let p = RunParams::from_json(
            r#"{
                "q": 4.0,
                "separation": 8.0,
                "domain_half": 32.0,
                "finest_level": 6,
                "eta": 1.5,
                "ko_sigma": 0.3,
                "courant": 0.2,
                "use_gpu": true,
                "rhs": "binary-reduce",
                "threads": 4,
                "steps": 4
            }"#,
        )
        .unwrap();
        assert_eq!(p.q, 4.0);
        assert_eq!(p.separation, 8.0);
        assert_eq!(p.finest_level, 6);
        assert!(p.config.use_gpu);
        assert_eq!(p.config.courant, 0.2);
        assert_eq!(p.config.threads, 4);
        assert_eq!(p.config.params.eta, 1.5);
        assert!(matches!(p.config.rhs_kind, RhsKind::Generated(ScheduleStrategy::BinaryReduce)));
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let p = RunParams::from_json(r#"{ "q": 2.0 }"#).unwrap();
        assert_eq!(p.q, 2.0);
        assert_eq!(p.domain_half, 16.0);
        assert!(!p.config.use_gpu);
        assert_eq!(p.ranks, 1);
        assert_eq!(p.max_retransmits, 8);
        assert!(!p.checkpoint_distributed);
    }

    #[test]
    fn distributed_comm_keys_parse() {
        let p = RunParams::from_json(
            r#"{
                "ranks": 4,
                "comm.max_retransmits": 5,
                "comm.heartbeat_interval": 10.0,
                "comm.recv_timeout": 2000.0,
                "checkpoint.distributed": true,
                "checkpoint_dir": "/tmp/gw_snapshots",
                "checkpoint_every": 2
            }"#,
        )
        .unwrap();
        assert_eq!(p.ranks, 4);
        assert_eq!(p.max_retransmits, 5);
        assert!(p.checkpoint_distributed);
        let wc = p.world_config();
        assert_eq!(wc.max_retransmits, 5);
        assert_eq!(wc.heartbeat_interval, std::time::Duration::from_millis(10));
        assert_eq!(wc.recv_timeout, std::time::Duration::from_secs(2));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(RunParams::from_json("not json").is_err());
        assert!(RunParams::from_json(r#"{ "rhs": "quantum" }"#).is_err());
        assert!(RunParams::from_json(r#"{ "q": "abc" }"#).is_err());
    }

    #[test]
    fn rejects_out_of_range_values() {
        // Each error message must name the offending parameter.
        let cases = [
            (r#"{ "courant": 0.0 }"#, "courant"),
            (r#"{ "courant": 1.5 }"#, "courant"),
            (r#"{ "q": -1.0 }"#, "q"),
            (r#"{ "ko_sigma": -0.1 }"#, "ko_sigma"),
            (r#"{ "chi_floor": 0.0 }"#, "chi_floor"),
            (r#"{ "base_level": 7, "finest_level": 3 }"#, "base_level"),
            (r#"{ "extract_radius": 99.0 }"#, "extract_radius"),
            (r#"{ "ranks": 0 }"#, "ranks"),
            (r#"{ "comm.heartbeat_interval": 0.0 }"#, "comm.heartbeat_interval"),
            (r#"{ "comm.recv_timeout": -1.0 }"#, "comm.recv_timeout"),
            (r#"{ "checkpoint.distributed": true }"#, "checkpoint_dir"),
            (r#"{ "threads": 100000 }"#, "threads"),
        ];
        for (json, needle) in cases {
            match RunParams::from_json(json) {
                Err(e) => {
                    let msg = e.to_string();
                    assert!(msg.contains(needle), "{json}: error '{msg}' lacks '{needle}'");
                }
                Ok(_) => panic!("{json}: expected validation error"),
            }
        }
    }

    #[test]
    fn typed_errors_distinguish_failure_classes() {
        assert!(matches!(RunParams::from_json("not json"), Err(ParamError::Parse(_))));
        assert!(matches!(RunParams::from_json(r#"{ "ranks": 0 }"#), Err(ParamError::Invalid(_))));
        assert!(matches!(
            RunParams::from_json(r#"{ "courant": 1.5 }"#),
            Err(ParamError::Config(crate::solver::ConfigError::Courant(_)))
        ));
        assert!(matches!(
            RunParams::from_file("/nonexistent/gw.par.json"),
            Err(ParamError::Io { .. })
        ));
    }

    #[test]
    fn obs_profile_key_parses() {
        let p = RunParams::from_json(r#"{ "obs.profile": "results/trace.json" }"#).unwrap();
        assert_eq!(p.profile.as_deref(), Some("results/trace.json"));
        assert_eq!(RunParams::from_json("{}").unwrap().profile, None);
    }
}
