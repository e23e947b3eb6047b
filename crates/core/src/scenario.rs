//! Typed scenario configuration — the one place `ZL_*` environment
//! variables are read.
//!
//! A [`Scenario`] bundles every knob that used to live in scattered
//! `std::env::var("ZL_…")` calls: experiment scale, fleet size, trace
//! length, rack count, replicate runs, worker count and the release-mode
//! validation switch. Values layer in a documented precedence order,
//! highest wins:
//!
//! 1. **CLI flags** (`--scale`, `--jobs`, …) — applied by the CLI after
//!    loading, never by this module.
//! 2. **Environment** (`ZL_SCALE`, `ZL_DC_SERVERS`, `ZL_DC_DAYS`,
//!    `ZL_RACKS`, `ZL_RUNS`, `ZL_JOBS`, `ZL_VALIDATE`, `ZL_BACKEND`,
//!    `ZL_CXL_CAP`, `ZL_GENERATIONS`) — applied by
//!    [`Scenario::apply_env`]. Malformed or out-of-range values are
//!    ignored (the historical `.ok().and_then(parse)` behavior), so a
//!    stray `ZL_SCALE=abc` cannot abort a batch run.
//! 3. **Scenario file** (`--scenario <file>`) — a minimal `key = value`
//!    format parsed by [`Scenario::parse`]; unknown keys and malformed
//!    lines are hard errors, because a typo in a file the user wrote
//!    deserves a message, not a silent default.
//! 4. **Defaults** ([`Scenario::default`]) — the paper's setup.
//!
//! The loaded scenario installs process-wide via [`install`];
//! [`current`] hands the installed value (or defaults + environment) to
//! every consumer — `zombieland-bench`'s experiment layer and the
//! simulator's validation switch among them. After this module, a
//! `grep` for `env::var("ZL_` across the workspace resolves here and
//! nowhere else.

use std::sync::OnceLock;

/// Every scenario-level knob, typed.
#[derive(Clone, PartialEq, Debug)]
pub struct Scenario {
    /// Fraction of the paper's full datacenter experiment to run
    /// (`ZL_SCALE`; 1.0 = the full Fig. 10 setup).
    pub scale: f64,
    /// Fleet size for DC-scale experiments (`ZL_DC_SERVERS`).
    pub servers: u32,
    /// Trace length in days for DC-scale experiments (`ZL_DC_DAYS`).
    pub days: u64,
    /// Rack count — the remote pool is rack-local (`ZL_RACKS`).
    pub racks: u32,
    /// Replicate runs per experiment point (`ZL_RUNS`).
    pub runs: u32,
    /// Worker-thread count (`ZL_JOBS`); `None` = probe the machine.
    pub jobs: Option<usize>,
    /// Release-mode invariant validation (`ZL_VALIDATE`); `None` = the
    /// build default (on for debug, off for release).
    pub validate: Option<bool>,
    /// Remote-memory backend key (`ZL_BACKEND`; see
    /// [`crate::backend::REGISTRY`]). Resolved through
    /// [`crate::backend::lookup`] by [`Scenario::ensure_valid`].
    pub backend: String,
    /// Per-rack capacity of the CXL pooled tier, in server-equivalents
    /// of memory (`ZL_CXL_CAP`); only read under `backend = cxl`.
    pub cxl_cap: f64,
    /// Per-rack server-generation mix, as model years from the
    /// generations table (`ZL_GENERATIONS`, comma-separated). Empty =
    /// uniform fleet of the profile's reference generation.
    pub generations: Vec<u16>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            scale: 0.25,
            servers: 600,
            days: 2,
            racks: 1,
            runs: 1,
            jobs: None,
            validate: None,
            backend: "rdma".to_string(),
            cxl_cap: crate::backend::DEFAULT_CXL_CAPACITY,
            generations: Vec::new(),
        }
    }
}

impl Scenario {
    /// Parses the scenario file format over the defaults: one
    /// `key = value` pair per line, `#` comments, blank lines, and an
    /// optional `[scenario]` section header. Unknown keys, duplicate
    /// keys and unparsable values are errors.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut s = Scenario::default();
        let mut seen: Vec<String> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() || line == "[scenario]" {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "line {}: expected `key = value`, got {raw:?}",
                    ln + 1
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            if seen.iter().any(|k| k == key) {
                return Err(format!("line {}: duplicate key {key:?}", ln + 1));
            }
            fn num<T: std::str::FromStr>(ln: usize, key: &str, v: &str) -> Result<T, String> {
                v.parse()
                    .map_err(|_| format!("line {}: invalid value {v:?} for {key:?}", ln + 1))
            }
            match key {
                "scale" => s.scale = num(ln, key, value)?,
                "servers" => s.servers = num(ln, key, value)?,
                "days" => s.days = num(ln, key, value)?,
                "racks" => s.racks = num(ln, key, value)?,
                "runs" => s.runs = num(ln, key, value)?,
                "jobs" => s.jobs = Some(num(ln, key, value)?),
                "validate" => {
                    s.validate = Some(match value {
                        "true" | "1" => true,
                        "false" | "0" => false,
                        _ => {
                            return Err(format!(
                                "line {}: invalid value {value:?} for \"validate\" \
                                 (use true/false)",
                                ln + 1
                            ))
                        }
                    })
                }
                "backend" => {
                    // Allow the TOML-ish quoted form (`backend = "cxl"`).
                    s.backend = value.trim_matches('"').to_string();
                }
                "cxl_cap" => s.cxl_cap = num(ln, key, value)?,
                "generations" => {
                    s.generations = value
                        .split(',')
                        .map(|y| num::<u16>(ln, key, y.trim()))
                        .collect::<Result<_, _>>()?;
                }
                _ => return Err(format!("line {}: unknown key {key:?}", ln + 1)),
            }
            seen.push(key.to_string());
        }
        Ok(s)
    }

    /// Layers the `ZL_*` environment over `self` (env beats file).
    /// Malformed or out-of-range values are silently ignored, matching
    /// the historical per-call-site `.ok().and_then(parse)` idiom.
    pub fn apply_env(mut self) -> Scenario {
        fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
            std::env::var(key).ok().and_then(|v| v.parse().ok())
        }
        if let Some(v) = env_parse::<f64>("ZL_SCALE").filter(|s| s.is_finite() && *s > 0.0) {
            self.scale = v;
        }
        if let Some(v) = env_parse::<u32>("ZL_DC_SERVERS").filter(|&n| n >= 1) {
            self.servers = v;
        }
        if let Some(v) = env_parse::<u64>("ZL_DC_DAYS").filter(|&n| n >= 1) {
            self.days = v;
        }
        if let Some(v) = env_parse::<u32>("ZL_RACKS").filter(|&n| n >= 1) {
            self.racks = v;
        }
        if let Some(v) = env_parse::<u32>("ZL_RUNS").filter(|&n| n >= 1) {
            self.runs = v;
        }
        if let Some(v) = env_parse::<usize>("ZL_JOBS").filter(|&n| n >= 1) {
            self.jobs = Some(v);
        }
        match std::env::var_os("ZL_VALIDATE") {
            Some(v) if v == "1" => self.validate = Some(true),
            Some(v) if v == "0" => self.validate = Some(false),
            _ => {}
        }
        if let Some(v) = env_parse::<String>("ZL_BACKEND").filter(|b| !b.is_empty()) {
            self.backend = v;
        }
        if let Some(v) = env_parse::<f64>("ZL_CXL_CAP").filter(|c| c.is_finite() && *c > 0.0) {
            self.cxl_cap = v;
        }
        if let Ok(v) = std::env::var("ZL_GENERATIONS") {
            let years: Option<Vec<u16>> =
                v.split(',').map(|y| y.trim().parse::<u16>().ok()).collect();
            if let Some(years) = years.filter(|ys| !ys.is_empty()) {
                self.generations = years;
            }
        }
        self
    }

    /// Rejects values the experiments cannot run with. (Named to avoid
    /// colliding with the [`Scenario::validate`] *field*.)
    pub fn ensure_valid(&self) -> Result<(), String> {
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(format!("scale must be positive, got {}", self.scale));
        }
        if self.servers == 0 {
            return Err("servers must be >= 1".into());
        }
        if self.days == 0 {
            return Err("days must be >= 1".into());
        }
        if self.racks == 0 {
            return Err("racks must be >= 1 (the remote pool is rack-local)".into());
        }
        if self.runs == 0 {
            return Err("runs must be >= 1".into());
        }
        if self.jobs == Some(0) {
            return Err("jobs must be >= 1".into());
        }
        if crate::backend::lookup(&self.backend).is_none() {
            let hint = match crate::backend::suggest(&self.backend) {
                Some(key) => format!(" (did you mean {key:?}?)"),
                None => String::new(),
            };
            return Err(format!(
                "unknown backend {:?}{hint}; run `zombieland --list-backends` for the registry",
                self.backend
            ));
        }
        if !self.cxl_cap.is_finite() || self.cxl_cap <= 0.0 {
            return Err(format!(
                "cxl_cap must be positive (server-equivalents of pooled memory \
                 per rack), got {}",
                self.cxl_cap
            ));
        }
        if let Some(year) = self
            .generations
            .iter()
            .find(|y| !GENERATION_YEARS.contains(y))
        {
            return Err(format!(
                "unknown server generation {year}; the generations table spans \
                 {}..={}",
                GENERATION_YEARS.start(),
                GENERATION_YEARS.end()
            ));
        }
        Ok(())
    }

    /// Loads a scenario file, layers the environment, validates.
    pub fn load(path: &str) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario file {path:?}: {e}"))?;
        let s = Scenario::parse(&text)
            .map_err(|e| format!("{path}: {e}"))?
            .apply_env();
        s.ensure_valid().map_err(|e| format!("{path}: {e}"))?;
        Ok(s)
    }

    /// The worker count this scenario resolves to: its `jobs` knob, or
    /// the machine's available parallelism.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(zombieland_simcore::available_jobs)
    }

    /// Always 1: the simulator has one serial event loop. Kept only
    /// because `perfbench/src/dc.rs` still calls it to fill the inert
    /// `SimConfig::shards`; a later benchmark-only change removes both.
    pub fn shards_for(&self, _racks: u32) -> u32 {
        1
    }
}

/// Model years the trace crate's generations table covers. This crate
/// cannot see `zombieland-trace`, so the range is restated here; a
/// simulator test (`generation_years_match_the_table`) pins the two
/// together.
pub const GENERATION_YEARS: std::ops::RangeInclusive<u16> = 2005..=2013;

static INSTALLED: OnceLock<Scenario> = OnceLock::new();

/// Installs `s` as the process-wide scenario (first caller wins; the CLI
/// installs before dispatching subcommands). Returns `false` if a
/// scenario was already installed.
pub fn install(s: Scenario) -> bool {
    INSTALLED.set(s).is_ok()
}

/// The installed scenario, if [`install`] ran.
pub fn installed() -> Option<&'static Scenario> {
    INSTALLED.get()
}

/// The effective scenario: the installed one, or defaults with the
/// environment layered on. The env re-read on the fallback path keeps
/// library consumers (tests, benches) that never touch the CLI seeing
/// `ZL_*` exactly as before this layer existed.
pub fn current() -> Scenario {
    match INSTALLED.get() {
        Some(s) => s.clone(),
        None => Scenario::default().apply_env(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_setup() {
        let s = Scenario::default();
        assert_eq!(s.scale, 0.25);
        assert_eq!(s.servers, 600);
        assert_eq!(s.days, 2);
        assert_eq!(s.racks, 1);
        assert_eq!(s.runs, 1);
        assert_eq!(s.jobs, None);
        assert_eq!(s.validate, None);
        assert_eq!(s.backend, "rdma");
        assert_eq!(s.cxl_cap, crate::backend::DEFAULT_CXL_CAPACITY);
        assert!(s.generations.is_empty());
        assert!(s.ensure_valid().is_ok());
    }

    #[test]
    fn parse_accepts_the_documented_format() {
        let s = Scenario::parse(
            "# Fig. 10 smoke\n\
             [scenario]\n\
             scale = 0.02  # tiny\n\
             servers= 120\n\
             days =1\n\
             racks = 4\n\
             runs = 2\n\
             jobs = 3\n\
             validate = true\n\
             backend = \"cxl\"\n\
             cxl_cap = 2.5\n\
             generations = 2008, 2011,2013\n",
        )
        .unwrap();
        assert_eq!(s.scale, 0.02);
        assert_eq!(s.servers, 120);
        assert_eq!(s.days, 1);
        assert_eq!(s.racks, 4);
        assert_eq!(s.runs, 2);
        assert_eq!(s.jobs, Some(3));
        assert_eq!(s.validate, Some(true));
        assert_eq!(s.backend, "cxl");
        assert_eq!(s.cxl_cap, 2.5);
        assert_eq!(s.generations, vec![2008, 2011, 2013]);
        assert!(s.ensure_valid().is_ok());
        // The unquoted form works too.
        assert_eq!(Scenario::parse("backend = rdma").unwrap().backend, "rdma");
    }

    #[test]
    fn parse_rejects_typos_loudly() {
        assert!(Scenario::parse("scales = 1")
            .unwrap_err()
            .contains("unknown key"));
        assert!(Scenario::parse("scale")
            .unwrap_err()
            .contains("key = value"));
        assert!(Scenario::parse("scale = fast")
            .unwrap_err()
            .contains("invalid value"));
        assert!(Scenario::parse("runs = 1\nruns = 2")
            .unwrap_err()
            .contains("duplicate"));
        assert!(Scenario::parse("validate = maybe")
            .unwrap_err()
            .contains("true/false"));
        // The simulator has one serial event loop; the old shard count
        // is no longer a key.
        assert!(Scenario::parse("shards = 8")
            .unwrap_err()
            .contains("unknown key \"shards\""));
    }

    #[test]
    fn parse_keeps_defaults_for_unset_keys() {
        let s = Scenario::parse("servers = 50").unwrap();
        assert_eq!(s.servers, 50);
        assert_eq!(s.scale, Scenario::default().scale);
    }

    #[test]
    fn ensure_valid_rejects_zeroes() {
        for text in [
            "servers = 0",
            "days = 0",
            "racks = 0",
            "runs = 0",
            "jobs = 0",
            "cxl_cap = 0",
            "cxl_cap = -1",
            "generations = 1999",
        ] {
            let s = Scenario::parse(text).unwrap();
            assert!(s.ensure_valid().is_err(), "{text}");
        }
        let mut s = Scenario {
            scale: 0.0,
            ..Scenario::default()
        };
        assert!(s.ensure_valid().is_err());
        s.scale = f64::NAN;
        assert!(s.ensure_valid().is_err());
    }

    #[test]
    fn unknown_backends_error_with_a_hint() {
        let s = Scenario::parse("backend = cx1").unwrap();
        let err = s.ensure_valid().unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(err.contains("did you mean \"cxl\"?"), "{err}");
        assert!(err.contains("--list-backends"), "{err}");
        // No hint when nothing in the registry is close.
        let s = Scenario::parse("backend = infiniband").unwrap();
        let err = s.ensure_valid().unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn env_layer_beats_file_and_ignores_garbage() {
        // One test mutates every ZL_* variable (serially) so no other
        // test in this crate races the process environment.
        let keys = [
            "ZL_SCALE",
            "ZL_DC_SERVERS",
            "ZL_DC_DAYS",
            "ZL_RACKS",
            "ZL_RUNS",
            "ZL_JOBS",
            "ZL_VALIDATE",
            "ZL_BACKEND",
            "ZL_CXL_CAP",
            "ZL_GENERATIONS",
        ];
        let saved: Vec<_> = keys.iter().map(|k| std::env::var(k).ok()).collect();

        std::env::set_var("ZL_SCALE", "0.5");
        std::env::set_var("ZL_DC_SERVERS", "90");
        std::env::set_var("ZL_DC_DAYS", "3");
        std::env::set_var("ZL_RACKS", "2");
        std::env::set_var("ZL_RUNS", "4");
        std::env::set_var("ZL_JOBS", "5");
        std::env::set_var("ZL_VALIDATE", "1");
        std::env::set_var("ZL_BACKEND", "cxl");
        std::env::set_var("ZL_CXL_CAP", "1.5");
        std::env::set_var("ZL_GENERATIONS", "2005, 2013");
        let s = Scenario::parse("scale = 0.1\nservers = 10")
            .unwrap()
            .apply_env();
        assert_eq!(s.scale, 0.5, "env beats file");
        assert_eq!(s.servers, 90);
        assert_eq!(s.days, 3);
        assert_eq!(s.racks, 2);
        assert_eq!(s.runs, 4);
        assert_eq!(s.jobs, Some(5));
        assert_eq!(s.validate, Some(true));
        assert_eq!(s.backend, "cxl", "env beats the rdma default");
        assert_eq!(s.cxl_cap, 1.5);
        assert_eq!(s.generations, vec![2005, 2013]);
        assert_eq!(s.jobs(), 5);

        // Garbage and zeroes fall through to the layer below.
        std::env::set_var("ZL_SCALE", "abc");
        std::env::set_var("ZL_DC_SERVERS", "0");
        std::env::set_var("ZL_DC_DAYS", "-1");
        std::env::set_var("ZL_RACKS", "");
        std::env::set_var("ZL_RUNS", "not-a-number");
        std::env::set_var("ZL_JOBS", "0");
        std::env::set_var("ZL_VALIDATE", "yes");
        std::env::set_var("ZL_BACKEND", "");
        std::env::set_var("ZL_CXL_CAP", "nan");
        std::env::set_var("ZL_GENERATIONS", "new,old");
        let s = Scenario::parse("scale = 0.1\nservers = 10")
            .unwrap()
            .apply_env();
        assert_eq!(s.scale, 0.1);
        assert_eq!(s.servers, 10);
        assert_eq!(s.days, Scenario::default().days);
        assert_eq!(s.racks, 1);
        assert_eq!(s.runs, 1);
        assert_eq!(s.jobs, None);
        assert_eq!(s.validate, None);
        assert_eq!(s.backend, "rdma");
        assert_eq!(s.cxl_cap, crate::backend::DEFAULT_CXL_CAPACITY);
        assert!(s.generations.is_empty());

        // ZL_VALIDATE=0 is an explicit "off", not an ignore.
        std::env::set_var("ZL_VALIDATE", "0");
        assert_eq!(Scenario::default().apply_env().validate, Some(false));

        for (k, v) in keys.iter().zip(saved) {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }

    #[test]
    fn current_falls_back_to_defaults_when_nothing_installed() {
        // `install` is process-global, so this test only checks the
        // uninstalled path (the test binary never installs).
        if installed().is_none() {
            let s = current();
            assert!(s.ensure_valid().is_ok());
        }
    }
}
