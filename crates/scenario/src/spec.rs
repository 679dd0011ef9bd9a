//! Declarative campaign specs: TOML grids that expand into
//! [`ScenarioConfig`]s.
//!
//! A [`CampaignSpec`] names a campaign, sets base parameters
//! (`[defaults]`), and lists `[[scenario]]` grids. Each scenario may
//! override any base key and sweep any subset of axes ([`SweepAxis`]);
//! the cartesian product of its axes — in the canonical order provider →
//! motion → `duration_s` → `w_m` → `b` → `cc` → `recovery`, with `seeds`
//! repetitions innermost — expands deterministically into plain [`ScenarioConfig`]s,
//! so expansion never perturbs campaign cache keys. A scenario with
//! `kind = "table1"` expands each grid point through the paper's Table I
//! dataset planner ([`plan_dataset`]) instead.
//!
//! Every validation failure names the offending key
//! (`scenario[0].sweep.w_m[1]`-style) in [`SpecError::key`].
//!
//! ```toml
//! name = "demo"
//!
//! [defaults]
//! duration_s = 60
//!
//! [[scenario]]
//! name = "delack"
//! [scenario.sweep]
//! b = [1, 2, 3]
//! ```

use crate::dataset::{plan_dataset, DatasetConfig};
use crate::fnv::Fnv1a;
use crate::provider::Provider;
use crate::runner::{Motion, ScenarioConfig, ScenarioError};
use hsm_simnet::time::SimDuration;
use hsm_tcp::cc::Algorithm;
use hsm_tcp::recovery::Recovery;
use serde::{Deserialize, Value};
use std::fmt;
use std::path::Path;

/// A spec that failed to load, parse, validate or expand. `key` names
/// the offending TOML key (or the file path for I/O and syntax errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending key, e.g. `scenario[0].sweep.w_m[1]`.
    pub key: String,
    /// What is wrong with it.
    pub message: String,
}

impl SpecError {
    fn new(key: impl Into<String>, message: impl Into<String>) -> SpecError {
        SpecError {
            key: key.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error at `{}`: {}", self.key, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Base parameters of a scenario grid: the flow every grid point starts
/// from, plus the seed count and the Table I scale factor.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBase {
    /// The flow's fields. `seed` is the scenario's first seed (TOML
    /// `seed_start`; flow `i` uses `seed + i`) and `duration` is TOML
    /// `duration_s`; `flow` is unread, since expansion numbers the flows,
    /// and Table I scenarios pin their own `provider`.
    pub config: ScenarioConfig,
    /// Repetitions per grid point (each gets the next seed).
    pub seeds: u32,
    /// Table I scale factor (fraction of each campaign's flows;
    /// `kind = "table1"` scenarios only).
    pub scale: f64,
}

impl Default for ScenarioBase {
    fn default() -> Self {
        ScenarioBase {
            config: ScenarioConfig::default(),
            seeds: 1,
            scale: 1.0,
        }
    }
}

/// One sweepable parameter axis with its grid values.
///
/// Within a scenario the axes always apply in the canonical order
/// `Provider → Motion → DurationSecs → Window → DelayedAck → Cc →
/// Recovery` (outermost to innermost loop), regardless of spec-file key
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Sweep the ISP.
    Provider(Vec<Provider>),
    /// Sweep the motion regime (speed profile).
    Motion(Vec<Motion>),
    /// Sweep the flow duration, whole seconds.
    DurationSecs(Vec<u64>),
    /// Sweep the advertised window `w_m`, segments.
    Window(Vec<u32>),
    /// Sweep the delayed-ACK factor `b`.
    DelayedAck(Vec<u32>),
    /// Sweep the congestion-control algorithm.
    Cc(Vec<Algorithm>),
    /// Sweep the loss-recovery countermeasure (§V).
    Recovery(Vec<Recovery>),
}

impl SweepAxis {
    /// The TOML key this axis is spelled as.
    pub fn key(&self) -> &'static str {
        AXES[self.canonical_rank()].0
    }

    /// Number of grid values on this axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::Provider(v) => v.len(),
            SweepAxis::Motion(v) => v.len(),
            SweepAxis::DurationSecs(v) => v.len(),
            SweepAxis::Window(v) => v.len(),
            SweepAxis::DelayedAck(v) => v.len(),
            SweepAxis::Cc(v) => v.len(),
            SweepAxis::Recovery(v) => v.len(),
        }
    }

    /// Whether the axis has no grid values (always invalid in a spec).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn canonical_rank(&self) -> usize {
        match self {
            SweepAxis::Provider(_) => 0,
            SweepAxis::Motion(_) => 1,
            SweepAxis::DurationSecs(_) => 2,
            SweepAxis::Window(_) => 3,
            SweepAxis::DelayedAck(_) => 4,
            SweepAxis::Cc(_) => 5,
            SweepAxis::Recovery(_) => 6,
        }
    }

    /// Sets this axis's grid value `j` on `config`.
    fn apply(&self, j: usize, config: &mut ScenarioConfig) {
        match self {
            SweepAxis::Provider(v) => config.provider = v[j],
            SweepAxis::Motion(v) => config.motion = v[j],
            SweepAxis::DurationSecs(v) => config.duration = SimDuration::from_secs(v[j]),
            SweepAxis::Window(v) => config.w_m = v[j],
            SweepAxis::DelayedAck(v) => config.b = v[j],
            SweepAxis::Cc(v) => config.cc = v[j],
            SweepAxis::Recovery(v) => config.recovery = v[j],
        }
    }
}

/// How a scenario's grid points turn into configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridKind {
    /// Each grid point is one flow family: `seeds` sequentially-seeded
    /// [`ScenarioConfig`]s.
    #[default]
    Grid,
    /// Each grid point expands through the paper's Table I planner
    /// ([`plan_dataset`]) at the scenario's `scale`.
    Table1,
}

/// One named scenario grid inside a [`CampaignSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// Scenario name (unique within the spec).
    pub name: String,
    /// Grid-point expansion mode.
    pub kind: GridKind,
    /// Base parameters (spec defaults merged with per-scenario overrides).
    pub base: ScenarioBase,
    /// Swept axes, at most one per axis kind; expansion visits them in
    /// canonical order whatever their order here.
    pub sweep: Vec<SweepAxis>,
}

/// A declarative campaign: defaults plus named scenario grids, loaded
/// from TOML.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (labels reports and shard files).
    pub name: String,
    /// Base parameters every scenario starts from.
    pub defaults: ScenarioBase,
    /// The scenario grids, expanded in order.
    pub scenarios: Vec<ScenarioGrid>,
}

/// Loads and validates a [`CampaignSpec`] from a TOML file.
///
/// # Errors
///
/// Returns [`SpecError`] when the file cannot be read, is not valid
/// TOML, or fails spec validation; `key` names the offending TOML key
/// (or the file path for I/O and syntax errors).
pub fn load_spec(path: &Path) -> Result<CampaignSpec, SpecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError::new(path.display().to_string(), format!("cannot read: {e}")))?;
    CampaignSpec::from_toml(&text)
        .map_err(|e| SpecError::new(format!("{}:{}", path.display(), e.key), e.message))
}

impl CampaignSpec {
    /// Parses and validates a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the offending key; syntax errors use
    /// the pseudo-key `<toml>`.
    pub fn from_toml(text: &str) -> Result<CampaignSpec, SpecError> {
        let value = toml::parse(text).map_err(|e| SpecError::new("<toml>", e.to_string()))?;
        let spec = Self::from_spec_value(&value)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Validates the spec without expanding it: every base's flow, and
    /// the base with each swept value applied, through
    /// [`ScenarioConfig::validate`], plus the checks only a spec has.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the offending key.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::new("name", "campaign name must be non-empty"));
        }
        if self.scenarios.is_empty() {
            return Err(SpecError::new(
                "scenario",
                "spec declares no scenarios — nothing to expand",
            ));
        }
        check_base("defaults", &self.defaults)?;
        for (i, sc) in self.scenarios.iter().enumerate() {
            let at = |field: &str| format!("scenario[{i}].{field}");
            if sc.name.is_empty() {
                return Err(SpecError::new(
                    at("name"),
                    "scenario name must be non-empty",
                ));
            }
            if self.scenarios[..i].iter().any(|s| s.name == sc.name) {
                return Err(SpecError::new(
                    at("name"),
                    format!("duplicate scenario name `{}`", sc.name),
                ));
            }
            check_base(&format!("scenario[{i}]"), &sc.base)?;
            let mut seen: Vec<&'static str> = Vec::new();
            for axis in &sc.sweep {
                let key = axis.key();
                let path = || at(&format!("sweep.{key}"));
                if seen.contains(&key) {
                    return Err(SpecError::new(path(), "axis listed more than once"));
                }
                seen.push(key);
                if axis.is_empty() {
                    return Err(SpecError::new(path(), "axis has no grid values"));
                }
                for j in 0..axis.len() {
                    let at_j = || format!("{}[{j}]", path());
                    if let SweepAxis::DurationSecs(secs) = axis {
                        check_secs(secs[j], at_j)?;
                    }
                    let mut config = sc.base.config.clone();
                    axis.apply(j, &mut config);
                    config
                        .validate()
                        .map_err(|e| SpecError::new(at_j(), e.to_string()))?;
                }
            }
            if sc.kind == GridKind::Table1 {
                if sc.base.seeds != 1 {
                    return Err(SpecError::new(
                        at("seeds"),
                        "table1 scenarios take exactly one seed (seed_start)",
                    ));
                }
                if sc.sweep.iter().any(|a| matches!(a, SweepAxis::Provider(_))) {
                    return Err(SpecError::new(
                        at("sweep.provider"),
                        "table1 scenarios pin providers from Table I",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Expands the spec into scenario configurations: every scenario's
    /// grid in canonical axis order, `seeds` repetitions per grid point,
    /// flow ids assigned sequentially across the whole spec (Table I
    /// scenarios keep the planner's own flow ids).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] naming the offending key.
    pub fn expand(&self) -> Result<Vec<ScenarioConfig>, SpecError> {
        self.validate()?;
        let mut out = Vec::new();
        let mut flow = 0u32;
        for sc in &self.scenarios {
            // One odometer over the swept axes in canonical order: digit
            // `k` picks axis `k`'s value, and the last digit turns fastest.
            let mut axes: Vec<&SweepAxis> = sc.sweep.iter().collect();
            axes.sort_by_key(|axis| axis.canonical_rank());
            let mut digits = vec![0; axes.len()];
            let mut point = sc.base.config.clone();
            // The first digit that changed: axes before it keep their value.
            let mut turned = 0;
            let mut seed_offset = 0u64;
            loop {
                for (axis, &j) in axes[turned..].iter().zip(&digits[turned..]) {
                    axis.apply(j, &mut point);
                }
                match sc.kind {
                    GridKind::Grid => {
                        for _ in 0..sc.base.seeds {
                            out.push(ScenarioConfig {
                                seed: point.seed.wrapping_add(seed_offset),
                                flow,
                                ..point
                            });
                            seed_offset += 1;
                            flow = flow.wrapping_add(1);
                        }
                    }
                    GridKind::Table1 => {
                        let cfg = DatasetConfig {
                            seed: point.seed,
                            flow_duration: point.duration,
                            scale: sc.base.scale,
                            w_m: point.w_m,
                            b: point.b,
                            motion: point.motion,
                            cc: point.cc,
                            recovery: point.recovery,
                        };
                        out.extend(plan_dataset(&cfg).into_iter().map(|(_, c)| c));
                    }
                }
                let Some(k) = (0..axes.len())
                    .rev()
                    .find(|&k| digits[k] + 1 < axes[k].len())
                else {
                    break;
                };
                digits[k] += 1;
                digits[k + 1..].fill(0);
                turned = k;
            }
        }
        Ok(out)
    }

    /// Expands the spec and digests the expansion
    /// (see [`expansion_digest`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`CampaignSpec::expand`].
    pub fn digest(&self) -> Result<u64, SpecError> {
        Ok(expansion_digest(&self.expand()?))
    }

    // -- serde (hand-written for key-path-aware errors) ------------------

    fn from_spec_value(value: &Value) -> Result<CampaignSpec, SpecError> {
        let top = value
            .as_obj()
            .ok_or_else(|| SpecError::new("<toml>", "top level must be a table"))?;
        reject_unknown_keys("", top, &["name", "defaults", "scenario"])?;
        let name = match serde::get_field(top, "name") {
            Some(Value::Str(s)) => s.clone(),
            Some(v) => return Err(SpecError::new("name", expected("a string", v))),
            None => return Err(SpecError::new("name", "missing campaign name")),
        };
        let defaults = match serde::get_field(top, "defaults") {
            Some(v) => {
                let obj = v
                    .as_obj()
                    .ok_or_else(|| SpecError::new("defaults", expected("a table", v)))?;
                reject_unknown_keys("defaults.", obj, &keys(&[], &BASE_ONLY_KEYS))?;
                base_from_obj("defaults", obj, &ScenarioBase::default())?
            }
            None => ScenarioBase::default(),
        };
        let mut scenarios = Vec::new();
        match serde::get_field(top, "scenario") {
            Some(Value::Arr(items)) => {
                for (i, item) in items.iter().enumerate() {
                    scenarios.push(scenario_from_value(i, item, &defaults)?);
                }
            }
            Some(v) => {
                return Err(SpecError::new(
                    "scenario",
                    expected("an array of tables ([[scenario]])", v),
                ))
            }
            None => {}
        }
        Ok(CampaignSpec {
            name,
            defaults,
            scenarios,
        })
    }
}

/// FNV-1a digest of an expansion: every config's canonical identity
/// encoding ([`ScenarioConfig::hash_into`]), in expansion order, streamed
/// through one hash. Two specs with the same digest expand to the same
/// configs — and therefore the same campaign cache keys.
pub fn expansion_digest(configs: &[ScenarioConfig]) -> u64 {
    let mut h = Fnv1a::default();
    for config in configs {
        config.hash_into(&mut h);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Validation internals
// ---------------------------------------------------------------------------

/// The longest `duration_s` the simulator's microsecond clock holds.
const MAX_DURATION_S: u64 = u64::MAX / 1_000_000;

/// Checks a base: its flow through [`ScenarioConfig::validate`], then the
/// seed count and scale only a spec has.
fn check_base(path: &str, base: &ScenarioBase) -> Result<(), SpecError> {
    base.config.validate().map_err(|e| {
        let key = match e {
            ScenarioError::ZeroWindow => "w_m",
            ScenarioError::ZeroDelayedAck => "b",
            ScenarioError::ZeroDuration => "duration_s",
            ScenarioError::Engine(_) => unreachable!("validation runs no engine"),
        };
        SpecError::new(format!("{path}.{key}"), e.to_string())
    })?;
    if base.seeds == 0 {
        return Err(SpecError::new(
            format!("{path}.seeds"),
            "seeds per grid point must be >= 1",
        ));
    }
    if !(base.scale.is_finite() && base.scale > 0.0) {
        return Err(SpecError::new(
            format!("{path}.scale"),
            format!("scale must be a positive finite number, got {}", base.scale),
        ));
    }
    Ok(())
}

/// `secs` when it fits the simulator's clock as a whole-second duration;
/// else an error at `path()`.
fn check_secs(secs: u64, path: impl FnOnce() -> String) -> Result<u64, SpecError> {
    if secs > MAX_DURATION_S {
        return Err(SpecError::new(
            path(),
            format!("duration_s must be at most {MAX_DURATION_S} s, got {secs}"),
        ));
    }
    Ok(secs)
}

// ---------------------------------------------------------------------------
// Value conversion internals
// ---------------------------------------------------------------------------

/// Reads the values of one sweepable key, naming item `j` `at(j)`.
type AxisParser = fn(&[Value], &dyn Fn(usize) -> String) -> Result<SweepAxis, SpecError>;

/// The sweepable keys in canonical order, each with the one parser that
/// reads it: a base value as a one-item axis, a `[scenario.sweep]` array
/// item by item.
const AXES: [(&str, AxisParser); 7] = [
    ("provider", |items, at| {
        each(items, at, provider_from_value).map(SweepAxis::Provider)
    }),
    ("motion", |items, at| {
        each(items, at, motion_from_value).map(SweepAxis::Motion)
    }),
    ("duration_s", |items, at| {
        each(items, at, |path, v| {
            check_secs(u64_from_value(path, v)?, || path.to_owned())
        })
        .map(SweepAxis::DurationSecs)
    }),
    ("w_m", |items, at| {
        each(items, at, u32_from_value).map(SweepAxis::Window)
    }),
    ("b", |items, at| {
        each(items, at, u32_from_value).map(SweepAxis::DelayedAck)
    }),
    ("cc", |items, at| {
        each(items, at, algorithm_from_value).map(SweepAxis::Cc)
    }),
    ("recovery", |items, at| {
        each(items, at, recovery_from_value).map(SweepAxis::Recovery)
    }),
];

/// The keys a `[defaults]` or scenario table takes besides the sweepable
/// ones.
const BASE_ONLY_KEYS: [&str; 3] = ["seed_start", "seeds", "scale"];

/// `before`, the sweepable keys in canonical order, then `after`.
fn keys(before: &[&'static str], after: &[&'static str]) -> Vec<&'static str> {
    let sweepable = AXES.iter().map(|&(key, _)| key);
    before
        .iter()
        .copied()
        .chain(sweepable)
        .chain(after.iter().copied())
        .collect()
}

fn each<T>(
    items: &[Value],
    at: &dyn Fn(usize) -> String,
    f: fn(&str, &Value) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    items
        .iter()
        .enumerate()
        .map(|(j, v)| f(&at(j), v))
        .collect()
}

fn expected(what: &str, got: &Value) -> String {
    format!("expected {what}, got {}", got.kind())
}

fn reject_unknown_keys(
    prefix: &str,
    obj: &[(String, Value)],
    allowed: &[&str],
) -> Result<(), SpecError> {
    for (key, _) in obj {
        if !allowed.contains(&key.as_str()) {
            return Err(SpecError::new(
                format!("{prefix}{key}"),
                format!("unknown key (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn scenario_from_value(
    i: usize,
    value: &Value,
    defaults: &ScenarioBase,
) -> Result<ScenarioGrid, SpecError> {
    let path = format!("scenario[{i}]");
    let obj = value
        .as_obj()
        .ok_or_else(|| SpecError::new(&path, expected("a table", value)))?;
    reject_unknown_keys(
        &format!("{path}."),
        obj,
        &keys(&["name", "kind", "sweep"], &BASE_ONLY_KEYS),
    )?;
    let name = match serde::get_field(obj, "name") {
        Some(Value::Str(s)) => s.clone(),
        Some(v) => {
            return Err(SpecError::new(
                format!("{path}.name"),
                expected("a string", v),
            ))
        }
        None => {
            return Err(SpecError::new(
                format!("{path}.name"),
                "missing scenario name",
            ))
        }
    };
    let kind = match serde::get_field(obj, "kind") {
        None => GridKind::Grid,
        Some(Value::Str(s)) if s == "grid" => GridKind::Grid,
        Some(Value::Str(s)) if s == "table1" => GridKind::Table1,
        Some(v) => {
            return Err(SpecError::new(
                format!("{path}.kind"),
                format!("expected \"grid\" or \"table1\", got {}", render_short(v)),
            ))
        }
    };
    let base = base_from_obj(&path, obj, defaults)?;
    let mut sweep = Vec::new();
    if let Some(v) = serde::get_field(obj, "sweep") {
        let sweep_path = format!("{path}.sweep");
        let sweep_obj = v
            .as_obj()
            .ok_or_else(|| SpecError::new(&sweep_path, expected("a table", v)))?;
        reject_unknown_keys(&format!("{sweep_path}."), sweep_obj, &keys(&[], &[]))?;
        for (key, parse) in AXES {
            if let Some(v) = serde::get_field(sweep_obj, key) {
                let path = format!("{sweep_path}.{key}");
                let Value::Arr(items) = v else {
                    return Err(SpecError::new(
                        &path,
                        expected("an array of grid values", v),
                    ));
                };
                sweep.push(parse(items, &|j| format!("{path}[{j}]"))?);
            }
        }
    }
    Ok(ScenarioGrid {
        name,
        kind,
        base,
        sweep,
    })
}

/// Reads the base keys present in `obj` over the `start` values.
fn base_from_obj(
    path: &str,
    obj: &[(String, Value)],
    start: &ScenarioBase,
) -> Result<ScenarioBase, SpecError> {
    let mut base = start.clone();
    let at = |field: &str| format!("{path}.{field}");
    for (key, parse) in AXES {
        if let Some(v) = serde::get_field(obj, key) {
            parse(std::slice::from_ref(v), &|_| at(key))?.apply(0, &mut base.config);
        }
    }
    if let Some(v) = serde::get_field(obj, "seed_start") {
        base.config.seed = u64_from_value(&at("seed_start"), v)?;
    }
    if let Some(v) = serde::get_field(obj, "seeds") {
        base.seeds = u32_from_value(&at("seeds"), v)?;
    }
    if let Some(v) = serde::get_field(obj, "scale") {
        base.scale = f64_from_value(&at("scale"), v)?;
    }
    Ok(base)
}

fn provider_from_value(path: &str, v: &Value) -> Result<Provider, SpecError> {
    Provider::from_value(v).map_err(|_| {
        SpecError::new(
            path,
            format!(
                "expected one of \"ChinaMobile\", \"ChinaUnicom\", \"ChinaTelecom\", got {}",
                render_short(v)
            ),
        )
    })
}

fn motion_from_value(path: &str, v: &Value) -> Result<Motion, SpecError> {
    Motion::from_value(v).map_err(|_| {
        SpecError::new(
            path,
            format!(
                "expected \"HighSpeed\" or \"Stationary\", got {}",
                render_short(v)
            ),
        )
    })
}

fn algorithm_from_value(path: &str, v: &Value) -> Result<Algorithm, SpecError> {
    Algorithm::from_value(v).map_err(|_| {
        SpecError::new(
            path,
            format!(
                "expected one of \"Reno\", \"Veno\", \"Cubic\", \"Bbr\", \"Compound\", got {}",
                render_short(v)
            ),
        )
    })
}

fn recovery_from_value(path: &str, v: &Value) -> Result<Recovery, SpecError> {
    Recovery::from_value(v).map_err(|_| {
        SpecError::new(
            path,
            format!(
                "expected one of \"None\", \"RedundantRto\", \"Frto\", \"AckRobust\", got {}",
                render_short(v)
            ),
        )
    })
}

fn u64_from_value(path: &str, v: &Value) -> Result<u64, SpecError> {
    match v {
        Value::UInt(u) => Ok(*u),
        other => Err(SpecError::new(
            path,
            expected("a non-negative integer", other),
        )),
    }
}

fn u32_from_value(path: &str, v: &Value) -> Result<u32, SpecError> {
    let u = u64_from_value(path, v)?;
    u32::try_from(u).map_err(|_| SpecError::new(path, format!("{u} does not fit in 32 bits")))
}

fn f64_from_value(path: &str, v: &Value) -> Result<f64, SpecError> {
    match v {
        Value::Float(x) => Ok(*x),
        Value::UInt(u) => Ok(*u as f64),
        other => Err(SpecError::new(path, expected("a number", other))),
    }
}

fn render_short(v: &Value) -> String {
    match v {
        Value::Str(s) if s.len() <= 40 => format!("\"{s}\""),
        other => other.kind().to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A base of 60-s flows starting at `seed`.
    fn minute_base(seed: u64, seeds: u32) -> ScenarioBase {
        ScenarioBase {
            config: ScenarioConfig {
                duration: SimDuration::from_secs(60),
                seed,
                ..Default::default()
            },
            seeds,
            ..Default::default()
        }
    }

    fn demo_spec() -> CampaignSpec {
        CampaignSpec {
            name: "demo".to_owned(),
            defaults: minute_base(1, 1),
            scenarios: vec![
                ScenarioGrid {
                    name: "delack".to_owned(),
                    kind: GridKind::Grid,
                    base: minute_base(1, 2),
                    sweep: vec![
                        SweepAxis::Motion(vec![Motion::HighSpeed, Motion::Stationary]),
                        SweepAxis::DelayedAck(vec![1, 2, 3]),
                    ],
                },
                ScenarioGrid {
                    name: "cc".to_owned(),
                    kind: GridKind::Grid,
                    base: minute_base(500, 1),
                    sweep: vec![SweepAxis::Cc(vec![
                        Algorithm::Reno,
                        Algorithm::Cubic,
                        Algorithm::Veno,
                    ])],
                },
            ],
        }
    }

    #[test]
    fn expansion_is_canonical_and_sequential() {
        let configs = demo_spec().expand().expect("valid spec");
        // 2 motions × 3 b × 2 seeds + 3 cc = 12 + 3.
        assert_eq!(configs.len(), 15);
        for (i, c) in configs.iter().enumerate() {
            assert_eq!(c.flow, i as u32, "flow ids sequential across scenarios");
        }
        // Scenario 1: motion outermost, b inner, seeds innermost.
        assert_eq!(configs[0].motion, Motion::HighSpeed);
        assert_eq!(configs[0].b, 1);
        assert_eq!(configs[0].seed, 1);
        assert_eq!(configs[1].seed, 2);
        assert_eq!(configs[2].b, 2);
        assert_eq!(configs[6].motion, Motion::Stationary);
        // Scenario 2 restarts its own seed range.
        assert_eq!(configs[12].seed, 500);
        assert_eq!(configs[12].cc, Algorithm::Reno);
        assert_eq!(configs[13].cc, Algorithm::Cubic);
        assert_eq!(configs[14].cc, Algorithm::Veno);
        // Expansion is deterministic.
        assert_eq!(configs, demo_spec().expand().unwrap());
    }

    #[test]
    fn errors_name_the_offending_key() {
        let mut spec = demo_spec();
        spec.scenarios[0].sweep[1] = SweepAxis::DelayedAck(vec![1, 0]);
        let err = spec.expand().unwrap_err();
        assert_eq!(err.key, "scenario[0].sweep.b[1]");

        let mut spec = demo_spec();
        spec.defaults.config.w_m = 0;
        assert_eq!(spec.validate().unwrap_err().key, "defaults.w_m");

        let mut spec = demo_spec();
        spec.scenarios[1].base.config.duration = SimDuration::ZERO;
        assert_eq!(spec.validate().unwrap_err().key, "scenario[1].duration_s");

        let err = CampaignSpec::from_toml("name = \"x\"\n[[scenario]]\nname = \"a\"\nbogus = 1\n")
            .unwrap_err();
        assert_eq!(err.key, "scenario[0].bogus");
        assert!(err.message.contains("unknown key"), "{err}");

        let err = CampaignSpec::from_toml(
            "name = \"x\"\n[[scenario]]\nname = \"a\"\n[scenario.sweep]\ncc = [\"Vegas\"]\n",
        )
        .unwrap_err();
        assert_eq!(err.key, "scenario[0].sweep.cc[0]");

        let err = CampaignSpec::from_toml("name = \"x\"\n").unwrap_err();
        assert_eq!(err.key, "scenario");
    }

    /// A controller runs at its published constants only: a parameter
    /// table in place of a label is an error at its key, not a default.
    #[test]
    fn a_parameter_form_is_rejected_not_defaulted() {
        let err = CampaignSpec::from_toml(
            r#"
name = "x"

[[scenario]]
name = "a"

[scenario.sweep]
cc = ["Reno", "Veno", { Compound = { alpha = 0.25, beta = 0.3, k = 0.5, gamma = 15.0 } }]
"#,
        )
        .unwrap_err();
        assert_eq!(err.key, "scenario[0].sweep.cc[2]");
        assert!(err.message.contains("\"Compound\""), "{err}");

        let err = CampaignSpec::from_toml(
            r#"
name = "x"

[defaults]
cc = { Cubic = { c = 0.1, beta = 0.5 } }

[[scenario]]
name = "a"
"#,
        )
        .unwrap_err();
        assert_eq!(err.key, "defaults.cc");
    }

    #[test]
    fn recovery_axis_sweeps_innermost_and_rejects_unknown_labels() {
        let text = r#"
name = "cures"

[[scenario]]
name = "rec"
duration_s = 30

[scenario.sweep]
cc = ["Reno", "Cubic"]
recovery = ["None", "Frto", "AckRobust"]
"#;
        let spec = CampaignSpec::from_toml(text).expect("parses");
        let configs = spec.expand().expect("expands");
        assert_eq!(configs.len(), 6);
        // Recovery is the innermost axis: it cycles fastest.
        assert_eq!(configs[0].recovery, Recovery::None);
        assert_eq!(configs[1].recovery, Recovery::Frto);
        assert_eq!(configs[2].recovery, Recovery::AckRobust);
        assert_eq!(configs[0].cc, Algorithm::Reno);
        assert_eq!(configs[3].cc, Algorithm::Cubic);

        let err = CampaignSpec::from_toml(
            "name = \"x\"\n[[scenario]]\nname = \"a\"\n[scenario.sweep]\nrecovery = [\"Fixit\"]\n",
        )
        .unwrap_err();
        assert_eq!(err.key, "scenario[0].sweep.recovery[0]");
    }

    #[test]
    fn table1_kind_expands_through_the_planner() {
        let text = r#"
name = "t1"

[[scenario]]
name = "paper"
kind = "table1"
duration_s = 45
scale = 0.02

[scenario.sweep]
b = [1, 2]
"#;
        let spec = CampaignSpec::from_toml(text).expect("parses");
        let configs = spec.expand().expect("expands");
        // scale 0.02 → 1 flow per Table I campaign, × 2 delayed-ACK points.
        assert_eq!(configs.len(), 8);
        assert_eq!(configs[0].provider, Provider::ChinaMobile);
        assert_eq!(configs[3].provider, Provider::ChinaTelecom);
        assert_eq!(configs[0].b, 1);
        assert_eq!(configs[4].b, 2);
        // Matches the planner exactly.
        let planned: Vec<ScenarioConfig> = plan_dataset(&DatasetConfig {
            seed: 1,
            flow_duration: SimDuration::from_secs(45),
            scale: 0.02,
            b: 1,
            ..Default::default()
        })
        .into_iter()
        .map(|(_, c)| c)
        .collect();
        assert_eq!(&configs[..4], &planned[..]);
    }

    #[test]
    fn table1_rejects_provider_axis_and_multi_seeds() {
        let mut spec = CampaignSpec {
            name: "x".to_owned(),
            defaults: ScenarioBase::default(),
            scenarios: vec![ScenarioGrid {
                name: "t".to_owned(),
                kind: GridKind::Table1,
                base: ScenarioBase::default(),
                sweep: vec![SweepAxis::Provider(vec![Provider::ChinaMobile])],
            }],
        };
        assert_eq!(
            spec.validate().unwrap_err().key,
            "scenario[0].sweep.provider"
        );
        spec.scenarios[0].sweep.clear();
        spec.scenarios[0].base.seeds = 3;
        assert_eq!(spec.validate().unwrap_err().key, "scenario[0].seeds");
    }

    #[test]
    fn digest_pins_the_expansion() {
        let spec = demo_spec();
        let d1 = spec.digest().expect("digests");
        let mut tweaked = spec.clone();
        tweaked.scenarios[0].base.config.seed = 2;
        assert_ne!(tweaked.digest().unwrap(), d1);
    }

    /// A `duration_s` the microsecond clock cannot hold is refused at its
    /// key, in the defaults and on an axis alike, not wrapped into a short
    /// flow: 2^58 + 60 s would otherwise run as 60 s.
    #[test]
    fn a_duration_past_the_clock_is_rejected_at_its_key() {
        let wraps = (1u64 << 58) + 60;
        let err = CampaignSpec::from_toml(&format!(
            "name = \"x\"\n[defaults]\nduration_s = {wraps}\n[[scenario]]\nname = \"a\"\n"
        ))
        .unwrap_err();
        assert_eq!(err.key, "defaults.duration_s");
        assert!(err.message.contains("at most 18446744073709 s"), "{err}");

        let err = CampaignSpec::from_toml(&format!(
            "name = \"x\"\n[[scenario]]\nname = \"a\"\n[scenario.sweep]\n\
             duration_s = [60, {}, {wraps}]\n",
            MAX_DURATION_S
        ))
        .unwrap_err();
        assert_eq!(err.key, "scenario[0].sweep.duration_s[2]");

        let mut spec = demo_spec();
        spec.scenarios[1].sweep = vec![SweepAxis::DurationSecs(vec![wraps])];
        assert_eq!(
            spec.expand().unwrap_err().key,
            "scenario[1].sweep.duration_s[0]"
        );
    }

    #[test]
    fn load_spec_reports_missing_file() {
        let err = load_spec(Path::new("/nonexistent/spec.toml")).unwrap_err();
        assert!(err.key.contains("/nonexistent/spec.toml"));
        assert!(err.message.contains("cannot read"), "{err}");
    }
}
