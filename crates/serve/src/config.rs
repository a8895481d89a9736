//! Session configuration: the create-session request body.
//!
//! [`SessionConfig`] is deliberately shaped like one cell of a bench
//! [`ExperimentSpec`](histal_bench::spec): the same dataset and
//! strategy tokens, the same scale knob — resolved through the same
//! `histal_bench::registry` grammar, so anything a grid can run a
//! client can serve (with two deliberate exceptions: `LHS(...)` tokens
//! need an offline selector-training phase, and `?noise=` corrupts
//! gold labels, which only makes sense for simulated oracles — both
//! are rejected with a 400 rather than silently approximated).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use histal_bench::registry::{parse_dataset, parse_strategy, DatasetDef};
use histal_bench::tasks::{NerTask, Scale, TextTask};
use histal_core::error::Error;
use histal_core::strategy::BaseStrategy;
use histal_core::PoolConfig;
use histal_obs::MetricsRegistry;

use crate::session::AnySession;

/// Default per-round batch size when the request leaves it zero.
pub const DEFAULT_BATCH: usize = 25;
/// Default round count when the request leaves it zero.
pub const DEFAULT_ROUNDS: usize = 20;
/// Default initial labeled-set size when the request leaves it zero.
pub const DEFAULT_INIT: usize = 25;

/// Who answers tickets: an external client over HTTP, or the session's
/// own hidden gold labels via `POST /sessions/{id}/run`.
pub const ORACLE_EXTERNAL: &str = "external";
/// See [`ORACLE_EXTERNAL`].
pub const ORACLE_SIMULATED: &str = "simulated";

/// The create-session request body. Every field has a serving default,
/// but `dataset` and `strategy` must be non-empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Samples per label ticket; `0` means [`DEFAULT_BATCH`].
    #[serde(default)]
    pub batch_size: usize,
    /// Selection rounds; `0` means [`DEFAULT_ROUNDS`].
    #[serde(default)]
    pub rounds: usize,
    /// Initial random labeled set; `0` means [`DEFAULT_INIT`].
    #[serde(default)]
    pub init_labeled: usize,
    /// `"external"` (default) or `"simulated"`; see [`ORACLE_EXTERNAL`].
    #[serde(default)]
    pub oracle: String,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            tenant: String::new(),
            dataset: String::new(),
            strategy: String::new(),
            seed: 0,
            scale: 0.0,
            batch_size: 0,
            rounds: 0,
            init_labeled: 0,
            oracle: String::new(),
        }
    }
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
    pub fn is_simulated(&self) -> bool {
        self.oracle == ORACLE_SIMULATED
    }

    /// The core loop configuration this request resolves to.
    pub fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            batch_size: self.batch_size,
            rounds: self.rounds,
            init_labeled: self.init_labeled,
            ..PoolConfig::default()
        }
    }

    /// Validate fields that don't need the registry.
    fn validate(&self) -> Result<(), Error> {
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
        match self.oracle.as_str() {
            ORACLE_EXTERNAL | ORACLE_SIMULATED => Ok(()),
            other => Err(Error::spec(format!(
                "oracle must be {ORACLE_EXTERNAL:?} or {ORACLE_SIMULATED:?}, got {other:?}"
            ))),
        }
    }

    /// Resolve the config through the bench registry and build the
    /// live session. `metrics` is the tenant's shard.
    pub fn build_session(
        &self,
        tasks: &TaskCache,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<AnySession, Error> {
        self.validate()?;
        let resolved = parse_strategy(&self.strategy)?;
        if resolved.lhs.is_some() {
            return Err(Error::spec(
                "LHS(...) strategies need an offline selector-training phase; \
                 train with `histal-bench` and serve the base strategy instead",
            ));
        }
        let strategy = resolved.strategy;
        let wants_representations = strategy.needs_representations();
        let config = self.pool_config();

        match parse_dataset(&self.dataset)? {
            DatasetDef::Text { spec, noise } => {
                if noise.is_some() {
                    return Err(Error::spec(
                        "?noise= corrupts hidden gold labels and is bench-only; \
                         submit noisy labels through the oracle API instead",
                    ));
                }
                let committee = if strategy.base == BaseStrategy::QbcKl {
                    4
                } else {
                    0
                };
                let task = tasks.text(&spec, self.scale, self.seed);
                let mut builder = task
                    .builder(task.model(committee), strategy, &config, self.seed)
                    .metrics(metrics);
                if wants_representations {
                    builder = builder.representations(task.representations());
                }
                Ok(AnySession::Text(builder.build_session()))
            }
            DatasetDef::Ner { spec } => {
                if wants_representations {
                    return Err(Error::spec(
                        "density/MMR/k-center need sparse representations, \
                         which NER tasks don't carry",
                    ));
                }
                let task = tasks.ner(&spec, self.scale, self.seed);
                let builder = task
                    .builder(task.model(), strategy, &config, self.seed)
                    .metrics(metrics);
                Ok(AnySession::Ner(builder.build_session()))
            }
        }
    }
}

/// Cache of featurized tasks keyed by `(spec, scale, seed)`: a thousand
/// sessions over the same corpus share one pool build instead of
/// re-generating and re-featurizing it a thousand times. (Sessions
/// still clone the documents out of the shared task — the pool itself
/// is mutated as labels arrive.)
#[derive(Default)]
pub struct TaskCache {
    text: Mutex<HashMap<String, Arc<TextTask>>>,
    ner: Mutex<HashMap<String, Arc<NerTask>>>,
}

impl TaskCache {
    /// Fresh, empty cache.
    pub fn new() -> TaskCache {
        TaskCache::default()
    }

    fn scale(factor: f64) -> Scale {
        Scale { factor, repeats: 1 }
    }

    /// The shared text task for `(spec, scale, seed)`.
    pub fn text(&self, spec: &histal_data::TextSpec, scale: f64, seed: u64) -> Arc<TextTask> {
        let key = format!("{spec:?}|{scale}|{seed}");
        let mut cache = self.text.lock().unwrap();
        Arc::clone(
            cache
                .entry(key)
                .or_insert_with(|| Arc::new(TextTask::build(spec, &Self::scale(scale), seed))),
        )
    }

    /// The shared NER task for `(spec, scale, seed)`. (NER corpora are
    /// generated from the spec's own seed; `seed` stays in the key so
    /// the cache contract matches [`TaskCache::text`].)
    pub fn ner(&self, spec: &histal_data::NerSpec, scale: f64, seed: u64) -> Arc<NerTask> {
        let key = format!("{spec:?}|{scale}|{seed}");
        let mut cache = self.ner.lock().unwrap();
        Arc::clone(
            cache
                .entry(key)
                .or_insert_with(|| Arc::new(NerTask::build(spec, &Self::scale(scale)))),
        )
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
        assert!(matches!(session, AnySession::Text(_)));
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
        let spec = histal_data::TextSpec::by_name("mr").unwrap();
        let a = tasks.text(&spec, 0.05, 7);
        let b = tasks.text(&spec, 0.05, 7);
        assert!(Arc::ptr_eq(&a, &b));
        let c = tasks.text(&spec, 0.05, 8);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
