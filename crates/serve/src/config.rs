//! Service configuration, read from `AIVRIL_SERVE_*` environment
//! variables on top of the harness knobs [`HarnessConfig`] already
//! understands (resilience, faults, EDA cache, pipeline budgets).

use aivril_bench::HarnessConfig;
use aivril_llm::{profiles, ModelProfile};

/// `aivril-serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`AIVRIL_SERVE_ADDR`); port `0` binds an
    /// ephemeral port, printed on startup.
    pub addr: String,
    /// Worker threads executing jobs (`AIVRIL_SERVE_WORKERS`); `0`
    /// auto-detects the machine's parallelism.
    pub workers: usize,
    /// Per-tenant cap on jobs executing at once
    /// (`AIVRIL_SERVE_MAX_INFLIGHT`).
    pub max_inflight: usize,
    /// Per-tenant cap on jobs *waiting* beyond the in-flight cap
    /// (`AIVRIL_SERVE_MAX_QUEUE`); a tenant's total admitted-but-
    /// unfinished jobs are bounded by `max_inflight + max_queue`.
    pub max_queue: usize,
    /// Global cap on distinct tenant states
    /// (`AIVRIL_SERVE_MAX_TENANTS`). Tenant identity is client-asserted
    /// and untrusted, so the tenant table must be bounded; idle tenants
    /// are evicted to make room, and `tenant_limit` rejects past that.
    pub max_tenants: usize,
    /// Global cap on admitted-but-unfinished jobs across all tenants
    /// (`AIVRIL_SERVE_MAX_JOBS`); submissions past it are rejected
    /// `server_full`.
    pub max_jobs: usize,
    /// Per-connection bound on response frames queued for transmission
    /// or being written (`AIVRIL_SERVE_OUTBOX_CAP`). A connection whose
    /// client stops reading overflows its outbox and is dropped; workers
    /// never block on a client socket. Size it above the largest
    /// single-job frame burst: a completed job's whole transcript is
    /// enqueued faster than the writer thread can drain it, so a
    /// too-small cap would condemn clients that are reading perfectly
    /// well.
    pub outbox_cap: usize,
    /// Socket write timeout in wall seconds
    /// (`AIVRIL_SERVE_SEND_TIMEOUT_S`); a write stalled past it
    /// condemns the connection as vanished.
    pub send_timeout_s: f64,
    /// Directory of the crash-safe admission journal
    /// (`AIVRIL_SERVE_JOURNAL_DIR`); unset disables journaling. A
    /// server restarted over the same directory re-admits every job
    /// that was accepted but never finished — and replays it
    /// byte-identically, since job seeds are pure functions of
    /// identity.
    pub journal_dir: Option<String>,
    /// Per-job wall-clock deadline in seconds
    /// (`AIVRIL_SERVE_DEADLINE_S`); `0` disables. A job claimed by a
    /// worker later than this many seconds after admission is not
    /// executed: it receives a terminal `expired` frame
    /// (`deadline_exceeded`) and frees its slot instead of pinning the
    /// worker on stale work.
    pub deadline_s: f64,
    /// Name of the simulated model profile serving requests
    /// (`AIVRIL_SERVE_MODEL`, matched against
    /// [`profiles::all`]).
    pub model: String,
    /// The underlying harness knobs (resilience policy, fault plan,
    /// EDA cache, pipeline budgets), parsed from the same environment.
    /// The service defaults the EDA cache *on* — cross-job compile
    /// batching is the point — unless `AIVRIL_EDA_CACHE=0` opts out.
    pub harness: HarnessConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let harness = HarnessConfig {
            eda_cache: true,
            ..HarnessConfig::default()
        };
        ServeConfig {
            addr: "127.0.0.1:4117".to_string(),
            workers: 0,
            max_inflight: 2,
            max_queue: 8,
            max_tenants: crate::queue::DEFAULT_MAX_TENANTS,
            max_jobs: crate::queue::DEFAULT_MAX_TOTAL_JOBS,
            outbox_cap: 4096,
            send_timeout_s: 30.0,
            journal_dir: None,
            deadline_s: 0.0,
            model: profiles::claude35_sonnet().name,
            harness,
        }
    }
}

impl ServeConfig {
    /// Reads the configuration from the process environment, printing
    /// warnings about malformed values to stderr.
    #[must_use]
    pub fn from_env() -> ServeConfig {
        let (c, warnings) = Self::from_vars_checked(|key| std::env::var(key).ok());
        for w in warnings {
            eprintln!("[config] {w}");
        }
        c
    }

    /// Like [`ServeConfig::from_env`] with an injectable lookup,
    /// returning warnings instead of printing them. Malformed values
    /// are warned about and ignored — the
    /// [`HarnessConfig::from_vars_checked`] discipline.
    #[must_use]
    pub fn from_vars_checked(get: impl Fn(&str) -> Option<String>) -> (ServeConfig, Vec<String>) {
        let (mut harness, mut warnings) = HarnessConfig::from_vars_checked(&get);
        if get("AIVRIL_EDA_CACHE").is_none() {
            // Service default: cache on (shared compile batching).
            harness.eda_cache = true;
        }
        let mut c = ServeConfig {
            harness,
            ..ServeConfig::default()
        };
        if let Some(addr) = get("AIVRIL_SERVE_ADDR").filter(|v| !v.is_empty()) {
            c.addr = addr;
        }
        let mut parse_usize = |key: &'static str, slot: &mut usize| {
            if let Some(v) = get(key) {
                match v.parse() {
                    Ok(n) => *slot = n,
                    Err(_) => {
                        warnings.push(format!("ignoring {key} (want a non-negative integer): {v}"))
                    }
                }
            }
        };
        parse_usize("AIVRIL_SERVE_WORKERS", &mut c.workers);
        parse_usize("AIVRIL_SERVE_MAX_INFLIGHT", &mut c.max_inflight);
        parse_usize("AIVRIL_SERVE_MAX_QUEUE", &mut c.max_queue);
        parse_usize("AIVRIL_SERVE_MAX_TENANTS", &mut c.max_tenants);
        parse_usize("AIVRIL_SERVE_MAX_JOBS", &mut c.max_jobs);
        parse_usize("AIVRIL_SERVE_OUTBOX_CAP", &mut c.outbox_cap);
        if let Some(v) = get("AIVRIL_SERVE_SEND_TIMEOUT_S") {
            match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => c.send_timeout_s = s,
                _ => warnings.push(format!(
                    "ignoring AIVRIL_SERVE_SEND_TIMEOUT_S (want a finite, positive number): {v}"
                )),
            }
        }
        if let Some(dir) = get("AIVRIL_SERVE_JOURNAL_DIR").filter(|v| !v.is_empty()) {
            c.journal_dir = Some(dir);
        }
        if let Some(v) = get("AIVRIL_SERVE_DEADLINE_S") {
            match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => c.deadline_s = s,
                _ => warnings.push(format!(
                    "ignoring AIVRIL_SERVE_DEADLINE_S (want a finite, non-negative number): {v}"
                )),
            }
        }
        if let Some(name) = get("AIVRIL_SERVE_MODEL") {
            if profiles::all().iter().any(|p| p.name == name) {
                c.model = name;
            } else {
                let known: Vec<String> = profiles::all().into_iter().map(|p| p.name).collect();
                warnings.push(format!(
                    "ignoring AIVRIL_SERVE_MODEL (want one of {known:?}): {name}"
                ));
            }
        }
        // A tenant must be able to run at least one job, and the
        // global bounds must admit at least one tenant / job / frame.
        for (key, slot) in [
            ("AIVRIL_SERVE_MAX_INFLIGHT", &mut c.max_inflight),
            ("AIVRIL_SERVE_MAX_TENANTS", &mut c.max_tenants),
            ("AIVRIL_SERVE_MAX_JOBS", &mut c.max_jobs),
            ("AIVRIL_SERVE_OUTBOX_CAP", &mut c.outbox_cap),
        ] {
            if *slot == 0 {
                warnings.push(format!("{key}=0 would admit nothing; using 1"));
                *slot = 1;
            }
        }
        (c, warnings)
    }

    /// The resolved model profile for [`ServeConfig::model`].
    #[must_use]
    pub fn profile(&self) -> ModelProfile {
        profiles::all()
            .into_iter()
            .find(|p| p.name == self.model)
            .unwrap_or_else(profiles::claude35_sonnet)
    }

    /// The worker count the server will actually spawn: `workers`, or
    /// the machine's available parallelism when `0`.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_the_shared_cache() {
        let (c, warnings) = ServeConfig::from_vars_checked(|_| None);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(c.harness.eda_cache, "service batches through the cache");
        assert_eq!(c.max_inflight, 2);
        assert_eq!(c.max_queue, 8);
        assert_eq!(c.max_tenants, 64);
        assert_eq!(c.max_jobs, 256);
        assert_eq!(c.outbox_cap, 4096);
        assert!((c.send_timeout_s - 30.0).abs() < 1e-12);
        assert_eq!(c.journal_dir, None, "journaling is opt-in");
        assert!(c.deadline_s == 0.0, "deadlines are off by default");
        assert!(c.effective_workers() >= 1);
        assert_eq!(c.profile().name, c.model);
    }

    #[test]
    fn env_knobs_parse_and_cache_can_opt_out() {
        let (c, warnings) = ServeConfig::from_vars_checked(|key| match key {
            "AIVRIL_SERVE_ADDR" => Some("127.0.0.1:0".into()),
            "AIVRIL_SERVE_WORKERS" => Some("3".into()),
            "AIVRIL_SERVE_MAX_INFLIGHT" => Some("1".into()),
            "AIVRIL_SERVE_MAX_QUEUE" => Some("0".into()),
            "AIVRIL_EDA_CACHE" => Some("0".into()),
            "AIVRIL_RETRY_MAX" => Some("2".into()),
            _ => None,
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.workers, 3);
        assert_eq!(c.effective_workers(), 3);
        assert_eq!((c.max_inflight, c.max_queue), (1, 0));
        assert!(!c.harness.eda_cache, "explicit opt-out wins");
        assert_eq!(c.harness.pipeline.resilience.retry_max, 2);
    }

    #[test]
    fn malformed_serve_knobs_warn_and_fall_back() {
        for (key, value) in [
            ("AIVRIL_SERVE_WORKERS", "lots"),
            ("AIVRIL_SERVE_MAX_INFLIGHT", "-1"),
            ("AIVRIL_SERVE_MAX_QUEUE", "1.5"),
            ("AIVRIL_SERVE_MAX_TENANTS", "many"),
            ("AIVRIL_SERVE_MAX_JOBS", "-3"),
            ("AIVRIL_SERVE_OUTBOX_CAP", "big"),
            ("AIVRIL_SERVE_SEND_TIMEOUT_S", "NaN"),
            ("AIVRIL_SERVE_SEND_TIMEOUT_S", "-1"),
            ("AIVRIL_SERVE_SEND_TIMEOUT_S", "0"),
            ("AIVRIL_SERVE_DEADLINE_S", "NaN"),
            ("AIVRIL_SERVE_DEADLINE_S", "inf"),
            ("AIVRIL_SERVE_DEADLINE_S", "-1"),
            ("AIVRIL_SERVE_DEADLINE_S", "soon"),
            ("AIVRIL_SERVE_MODEL", "GPT-9000"),
        ] {
            let (c, warnings) =
                ServeConfig::from_vars_checked(|k| (k == key).then(|| value.into()));
            assert_eq!(warnings.len(), 1, "{key}: {warnings:?}");
            assert!(warnings[0].contains(key), "{warnings:?}");
            let d = ServeConfig::default();
            assert_eq!(c.workers, d.workers);
            assert_eq!(c.max_inflight, d.max_inflight);
            assert_eq!(c.max_queue, d.max_queue);
            assert_eq!(c.max_tenants, d.max_tenants);
            assert_eq!(c.max_jobs, d.max_jobs);
            assert_eq!(c.outbox_cap, d.outbox_cap);
            assert!((c.send_timeout_s - d.send_timeout_s).abs() < 1e-12, "{key}");
            assert!(c.deadline_s == d.deadline_s, "{key}");
            assert_eq!(c.journal_dir, d.journal_dir);
            assert_eq!(c.model, d.model);
        }
    }

    #[test]
    fn backpressure_and_global_cap_knobs_parse() {
        let (c, warnings) = ServeConfig::from_vars_checked(|key| match key {
            "AIVRIL_SERVE_MAX_TENANTS" => Some("5".into()),
            "AIVRIL_SERVE_MAX_JOBS" => Some("17".into()),
            "AIVRIL_SERVE_OUTBOX_CAP" => Some("32".into()),
            "AIVRIL_SERVE_SEND_TIMEOUT_S" => Some("2.5".into()),
            "AIVRIL_SERVE_JOURNAL_DIR" => Some("/tmp/aivril-wal".into()),
            "AIVRIL_SERVE_DEADLINE_S" => Some("12.5".into()),
            _ => None,
        });
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(c.max_tenants, 5);
        assert_eq!(c.max_jobs, 17);
        assert_eq!(c.outbox_cap, 32);
        assert!((c.send_timeout_s - 2.5).abs() < 1e-12);
        assert_eq!(c.journal_dir.as_deref(), Some("/tmp/aivril-wal"));
        assert!((c.deadline_s - 12.5).abs() < 1e-12);
    }

    #[test]
    fn zero_global_caps_are_bumped_to_one() {
        for key in [
            "AIVRIL_SERVE_MAX_TENANTS",
            "AIVRIL_SERVE_MAX_JOBS",
            "AIVRIL_SERVE_OUTBOX_CAP",
        ] {
            let (c, warnings) = ServeConfig::from_vars_checked(|k| (k == key).then(|| "0".into()));
            assert_eq!(warnings.len(), 1, "{key}: {warnings:?}");
            assert!(warnings[0].contains(key), "{warnings:?}");
            assert!(c.max_tenants >= 1 && c.max_jobs >= 1 && c.outbox_cap >= 1);
        }
    }

    #[test]
    fn zero_inflight_is_bumped_to_one() {
        let (c, warnings) = ServeConfig::from_vars_checked(|k| {
            (k == "AIVRIL_SERVE_MAX_INFLIGHT").then(|| "0".into())
        });
        assert_eq!(c.max_inflight, 1);
        assert_eq!(warnings.len(), 1);
    }
}
