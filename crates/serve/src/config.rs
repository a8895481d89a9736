//! Session configuration: the create-session request body.
//!
//! [`SessionConfig`] is one cell of a bench
//! [`ExperimentSpec`](histal_bench::spec): the same dataset and strategy
//! tokens and scale knob, refused by the same cell rules
//! ([`resolve_cell`](histal_bench::registry::resolve_cell))
//! and built by the grid's one constructor ([`build_session`]). So anything
//! a grid runs on the default model a client can serve, by construction,
//! bar two 400s: `LHS(...)` needs offline selector training, and `?noise=`
//! corrupts gold labels, which only simulated oracles could mean.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use histal_bench::registry::{parse_dataset, parse_model, parse_strategy, DatasetDef, ModelKind};
use histal_bench::tasks::{build_session, AnySession, Scale, Task};
use histal_core::error::Error;
use histal_core::strategy::Strategy;
use histal_core::PoolConfig;
use histal_obs::MetricsRegistry;

/// Default per-round batch size when the request leaves it zero.
pub(crate) const DEFAULT_BATCH: usize = 25;
/// Default round count when the request leaves it zero.
pub(crate) const DEFAULT_ROUNDS: usize = 20;
/// Default initial labeled-set size when the request leaves it zero.
pub(crate) const DEFAULT_INIT: usize = 25;

/// Who answers tickets: an external client over HTTP, or the session's
/// own hidden gold labels via `POST /sessions/{id}/run`.
pub(crate) const ORACLE_EXTERNAL: &str = "external";
/// See [`ORACLE_EXTERNAL`].
pub(crate) const ORACLE_SIMULATED: &str = "simulated";

/// The create-session request body. Every field has a serving default,
/// but `dataset` and `strategy` must be non-empty. A key naming no field
/// is refused, so a misspelt field never silently takes its default.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SessionConfig {
    /// Tenant name the session's metrics are accounted under.
    #[serde(default)]
    pub tenant: String,
    /// Dataset token from the bench registry grammar, e.g. `"mr"` or
    /// `"conll2003-en"`.
    #[serde(default)]
    pub dataset: String,
    /// Strategy token from the bench registry grammar, e.g.
    /// `"WSHS{l=3}(entropy)"` or `"margin+mmr"`.
    #[serde(default)]
    pub strategy: String,
    /// Deterministic seed: split, shuffle and every RNG draw.
    #[serde(default)]
    pub seed: u64,
    /// Dataset scale factor in `(0, 1]`; `0` means full size.
    #[serde(default)]
    pub scale: f64,
    /// Samples per label ticket; `0` means 25.
    #[serde(default)]
    pub batch_size: usize,
    /// Selection rounds; `0` means 20.
    #[serde(default)]
    pub rounds: usize,
    /// Initial random labeled set; `0` means 25.
    #[serde(default)]
    pub init_labeled: usize,
    /// `"external"` (default) or `"simulated"`.
    #[serde(default)]
    pub oracle: String,
}

impl SessionConfig {
    /// Fill serving defaults into zero/empty fields. The normalized
    /// form is what gets journaled, so a replayed session resolves the
    /// same config even if defaults change between releases.
    pub fn normalized(mut self) -> SessionConfig {
        if self.tenant.is_empty() {
            self.tenant = "default".into();
        }
        if self.oracle.is_empty() {
            self.oracle = ORACLE_EXTERNAL.into();
        }
        if self.scale == 0.0 {
            self.scale = 1.0;
        }
        if self.batch_size == 0 {
            self.batch_size = DEFAULT_BATCH;
        }
        if self.rounds == 0 {
            self.rounds = DEFAULT_ROUNDS;
        }
        if self.init_labeled == 0 {
            self.init_labeled = DEFAULT_INIT;
        }
        self
    }

    /// `true` when `POST /sessions/{id}/run` may answer this session's
    /// tickets from hidden gold labels.
    pub(crate) fn is_simulated(&self) -> bool {
        self.oracle == ORACLE_SIMULATED
    }

    /// The core loop configuration this request resolves to.
    pub(crate) fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            batch_size: self.batch_size,
            rounds: self.rounds,
            init_labeled: self.init_labeled,
            ..PoolConfig::default()
        }
    }

    /// Check the request's fields and parse its tokens, applying the two
    /// serving refusals.
    pub(crate) fn resolve(&self) -> Result<(DatasetDef, ModelKind, Strategy), Error> {
        if self.dataset.is_empty() {
            return Err(Error::spec("session config needs a dataset token"));
        }
        if self.strategy.is_empty() {
            return Err(Error::spec("session config needs a strategy token"));
        }
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err(Error::spec(format!(
                "scale must be in (0, 1], got {}",
                self.scale
            )));
        }
        if !matches!(self.oracle.as_str(), ORACLE_EXTERNAL | ORACLE_SIMULATED) {
            return Err(Error::spec(format!(
                "oracle must be {ORACLE_EXTERNAL:?} or {ORACLE_SIMULATED:?}, got {:?}",
                self.oracle
            )));
        }
        let resolved = parse_strategy(&self.strategy)?;
        if resolved.lhs.is_some() {
            return Err(Error::spec(
                "LHS(...) strategies need an offline selector-training phase; \
                 train with `histal-bench` and serve the base strategy instead",
            ));
        }
        let def = parse_dataset(&self.dataset)?;
        if matches!(def, DatasetDef::Text { noise: Some(_), .. }) {
            return Err(Error::spec(
                "?noise= corrupts hidden gold labels and is bench-only; \
                 submit noisy labels through the oracle API instead",
            ));
        }
        let model = parse_model(None, def.kind())?;
        Ok((def, model, resolved.strategy))
    }

    /// Build the live session through the grid's one constructor.
    /// `metrics` is the tenant's shard.
    pub fn build_session(
        &self,
        tasks: &TaskCache,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<AnySession, Error> {
        let (def, model, strategy) = self.resolve()?;
        Ok(build_session(
            &tasks.task(&def, self.scale, self.seed),
            model,
            strategy,
            &self.pool_config(),
            self.seed,
            None,
            None,
            Some(metrics),
        ))
    }
}

/// Cache of built tasks keyed by `(dataset, scale, seed)`: a thousand
/// sessions over the same corpus share one pool build instead of
/// re-generating and re-featurizing it a thousand times, and diversity
/// sessions share the task's one pool geometry. (Sessions still clone
/// the documents out of the shared task — the pool itself is mutated as
/// labels arrive.)
#[derive(Default)]
pub struct TaskCache {
    tasks: Mutex<HashMap<String, Arc<Task>>>,
}

impl TaskCache {
    /// Fresh, empty cache.
    pub fn new() -> TaskCache {
        TaskCache::default()
    }

    /// The shared task for `(def, scale, seed)`.
    pub(crate) fn task(&self, def: &DatasetDef, scale: f64, seed: u64) -> Arc<Task> {
        let key = format!("{def:?}|{scale}|{seed}");
        let scale = Scale {
            factor: scale,
            repeats: 1,
        };
        let mut cache = self.tasks.lock().unwrap();
        let task = cache.entry(key);
        Arc::clone(task.or_insert_with(|| Arc::new(Task::build(def, &scale, seed))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_config() -> SessionConfig {
        SessionConfig {
            dataset: "mr".into(),
            strategy: "entropy".into(),
            scale: 0.05,
            batch_size: 5,
            rounds: 2,
            init_labeled: 10,
            oracle: ORACLE_SIMULATED.into(),
            ..SessionConfig::default()
        }
        .normalized()
    }

    #[test]
    fn normalized_fills_defaults() {
        let c = SessionConfig {
            dataset: "mr".into(),
            strategy: "entropy".into(),
            ..SessionConfig::default()
        }
        .normalized();
        assert_eq!(c.tenant, "default");
        assert_eq!(c.oracle, ORACLE_EXTERNAL);
        assert_eq!(c.batch_size, DEFAULT_BATCH);
        assert_eq!(c.rounds, DEFAULT_ROUNDS);
        assert_eq!(c.init_labeled, DEFAULT_INIT);
        assert_eq!(c.scale, 1.0);
    }

    #[test]
    fn builds_a_text_session() {
        let tasks = TaskCache::new();
        let session = text_config()
            .build_session(&tasks, Arc::new(MetricsRegistry::new()))
            .unwrap();
        assert!(matches!(session, AnySession::LogReg(_)));
    }

    #[test]
    fn rejects_lhs_noise_and_bad_oracle() {
        let tasks = TaskCache::new();
        let metrics = || Arc::new(MetricsRegistry::new());
        let mut c = text_config();
        c.strategy = "LHS(entropy)".into();
        assert!(c.build_session(&tasks, metrics()).is_err());
        let mut c = text_config();
        c.dataset = "mr?noise=0.1".into();
        assert!(c.build_session(&tasks, metrics()).is_err());
        let mut c = text_config();
        c.oracle = "psychic".into();
        assert!(c.build_session(&tasks, metrics()).is_err());
    }

    #[test]
    fn bad_priors_token_is_an_error_not_a_panic() {
        let mut c = text_config();
        c.dataset = "mr?priors=0.9/0.3".into();
        let e = c
            .build_session(&TaskCache::new(), Arc::new(MetricsRegistry::new()))
            .err()
            .expect("priors summing to 1.2 must be rejected");
        assert!(e.to_string().contains("priors"), "{e}");
    }

    #[test]
    fn task_cache_shares_builds() {
        let tasks = TaskCache::new();
        let def = parse_dataset("mr").unwrap();
        let a = tasks.task(&def, 0.05, 7);
        let b = tasks.task(&def, 0.05, 7);
        assert!(Arc::ptr_eq(&a, &b));
        let c = tasks.task(&def, 0.05, 8);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
