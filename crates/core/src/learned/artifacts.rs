//! The trained parts of a learned selector and the versioned `HLRN1`
//! file format.
//!
//! [`TrainedRanker`] and [`TrainedPredictor`] are the closed sets of
//! models the trainer produces. [`save_artifacts`] / [`load_artifacts`]
//! wrap a [`LearnedSelector`] in a versioned JSON envelope — magic
//! `"HLRN1"`, schema version, provenance — so a selector trained on
//! dataset A in one process can be persisted and applied to dataset B in
//! another (the Chu & Lin cross-dataset transfer protocol as a file).
//!
//! The envelope is JSON: the vendored toolchain has no binary
//! serialization dependency, and selector artifacts are kilobytes. The
//! magic + version are *inside* the JSON, checked on load; a future
//! incompatible layout bumps [`ARTIFACT_VERSION`] and readers reject
//! mismatches instead of misinterpreting fields.

use std::path::Path;

use serde::{Deserialize, Serialize};

use histal_ltr::{LambdaMart, LinearRanker, PointwiseRegressor, Ranker};
use histal_tseries::{ArPredictor, LstmPredictor, SequencePredictor};

use crate::error::Error;

use super::selector::LearnedSelector;

/// A concrete trained ranker.
#[derive(Clone, Serialize, Deserialize)]
pub enum TrainedRanker {
    /// LambdaMART ensemble.
    LambdaMart(LambdaMart),
    /// Pairwise-logistic linear ranker.
    Linear(LinearRanker),
    /// Pointwise expected-error-reduction regressor (LAL).
    Pointwise(PointwiseRegressor),
}

/// A concrete trained next-score predictor.
#[derive(Clone, Serialize, Deserialize)]
pub enum TrainedPredictor {
    /// Scalar LSTM.
    Lstm(LstmPredictor),
    /// AR(p) least squares.
    Ar(ArPredictor),
}

impl TrainedRanker {
    /// Score every row, in order (higher ranks earlier).
    pub(crate) fn score_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        match self {
            Self::LambdaMart(m) => m.score_batch(rows),
            Self::Linear(m) => m.score_batch(rows),
            Self::Pointwise(m) => m.score_batch(rows),
        }
    }
}

impl TrainedPredictor {
    /// Predict the next value of `seq` (finite for any input, including
    /// the empty sequence).
    pub(crate) fn predict_next(&self, seq: &[f64]) -> f64 {
        match self {
            Self::Lstm(p) => p.predict_next(seq),
            Self::Ar(p) => p.predict_next(seq),
        }
    }

    /// Check the parameter shapes a deserialized predictor indexes by.
    fn check_shape(&self) -> Result<(), String> {
        match self {
            Self::Lstm(p) => p.check_shape(),
            Self::Ar(p) => p.check_shape(),
        }
    }
}

/// Magic string identifying a learned-selector artifact file.
pub(crate) const ARTIFACT_MAGIC: &str = "HLRN1";

/// Current artifact schema version.
pub(crate) const ARTIFACT_VERSION: u32 = 1;

/// Where an artifact came from: enough to reconstruct the deployment
/// configuration (base strategy for seeding/naming) and to audit the
/// transfer matrix ("trained on A, applied to B"). A key naming no field
/// is refused on load, as in the envelope.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ArtifactProvenance {
    /// Dataset the selector was trained on (e.g. `"mr"`).
    pub trained_on: String,
    /// Base strategy name (e.g. `"entropy"`).
    pub base: String,
    /// Target shape: `"pairwise"` (LHS) or `"pointwise"` (LAL).
    pub target: String,
    /// Training seed.
    pub seed: u64,
}

/// The on-disk envelope: magic + version checked on load, then the
/// provenance and the selector itself. A key naming no field is refused
/// on load: this build would ignore whatever it carried.
#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Hlrn1Envelope {
    magic: String,
    version: u32,
    provenance: ArtifactProvenance,
    artifacts: LearnedSelector,
}

/// Write `artifacts` to `path` as an `HLRN1` envelope.
pub fn save_artifacts(
    artifacts: &LearnedSelector,
    provenance: &ArtifactProvenance,
    path: &Path,
) -> Result<(), Error> {
    let envelope = Hlrn1Envelope {
        magic: ARTIFACT_MAGIC.to_string(),
        version: ARTIFACT_VERSION,
        provenance: provenance.clone(),
        artifacts: artifacts.clone(),
    };
    let body = serde_json::to_string(&envelope)
        .map_err(|e| Error::spec(format!("serializing artifact: {e}")))?;
    std::fs::write(path, body)
        .map_err(|e| Error::spec(format!("writing artifact {}: {e}", path.display())))
}

/// Load an `HLRN1` envelope from `path`, rejecting wrong magic or
/// version, a zero candidate pool and a predictor whose parameter shapes
/// don't match its own header (either would otherwise load fine and
/// panic at the first selection).
pub fn load_artifacts(path: &Path) -> Result<(LearnedSelector, ArtifactProvenance), Error> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| Error::spec(format!("reading artifact {}: {e}", path.display())))?;
    let envelope: Hlrn1Envelope = serde_json::from_str(&body)
        .map_err(|e| Error::spec(format!("parsing artifact {}: {e}", path.display())))?;
    if envelope.magic != ARTIFACT_MAGIC {
        return Err(Error::conflict(format!(
            "artifact {} has magic {:?}, expected {ARTIFACT_MAGIC:?}",
            path.display(),
            envelope.magic
        )));
    }
    if envelope.version != ARTIFACT_VERSION {
        return Err(Error::conflict(format!(
            "artifact {} has schema version {}, this build reads {ARTIFACT_VERSION}",
            path.display(),
            envelope.version
        )));
    }
    let selector = envelope.artifacts;
    if selector.candidate_pool == 0 {
        return Err(Error::spec(format!(
            "artifact {}: candidate pool must be positive",
            path.display()
        )));
    }
    selector
        .predictor
        .check_shape()
        .map_err(|e| Error::spec(format!("artifact {}: {e}", path.display())))?;
    Ok((selector, envelope.provenance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;
    use crate::learned::LhsFeatureConfig;
    use histal_ltr::{PointwiseConfig, TreeConfig};
    use histal_tseries::LstmConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_artifacts() -> LearnedSelector {
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..8).map(|i| if i < 4 { 0.0 } else { 1.0 }).collect();
        let regressor = PointwiseRegressor::fit_trees(
            &rows,
            &targets,
            &PointwiseConfig {
                n_trees: 3,
                learning_rate: 0.5,
                tree: TreeConfig::default(),
                l2: 1.0,
            },
        );
        LearnedSelector {
            ranker: TrainedRanker::Pointwise(regressor),
            predictor: TrainedPredictor::Ar(ArPredictor::fit(&[vec![0.1, 0.2, 0.3]], 1)),
            features: LhsFeatureConfig::default(),
            candidate_pool: 75,
            use_meta: true,
        }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("histal-hlrn1-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn hlrn1_round_trips_across_save_load() {
        let artifacts = tiny_artifacts();
        let provenance = ArtifactProvenance {
            trained_on: "mr".into(),
            base: "entropy".into(),
            target: "pointwise".into(),
            seed: 42,
        };
        let path = tmp_path("roundtrip.json");
        save_artifacts(&artifacts, &provenance, &path).expect("save");
        let (loaded, prov) = load_artifacts(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(prov, provenance);
        assert_eq!(loaded.candidate_pool, artifacts.candidate_pool);
        assert!(loaded.use_meta);
        // The loaded ranker scores identically to the saved one.
        let rows = [vec![0.5], vec![3.5], vec![6.0]];
        assert_eq!(
            loaded.ranker.score_batch(&rows),
            artifacts.ranker.score_batch(&rows)
        );
    }

    #[test]
    fn hlrn1_rejects_wrong_version_and_magic() {
        let artifacts = tiny_artifacts();
        let provenance = ArtifactProvenance::default();
        let path = tmp_path("version.json");
        save_artifacts(&artifacts, &provenance, &path).expect("save");
        let body = std::fs::read_to_string(&path).expect("read back");
        let bumped = body.replace("\"version\":1", "\"version\":999");
        std::fs::write(&path, &bumped).expect("rewrite");
        let Err(err) = load_artifacts(&path) else {
            panic!("version mismatch accepted")
        };
        assert!(matches!(err.kind, ErrorKind::Conflict { .. }), "{err}");
        let wrong_magic = body.replace("\"HLRN1\"", "\"HXXX9\"");
        std::fs::write(&path, &wrong_magic).expect("rewrite");
        let Err(err) = load_artifacts(&path) else {
            panic!("magic mismatch accepted")
        };
        std::fs::remove_file(&path).ok();
        assert!(matches!(err.kind, ErrorKind::Conflict { .. }), "{err}");
    }

    #[test]
    fn hlrn1_rejects_shape_inconsistent_predictors() {
        let history = vec![vec![0.1, 0.4, 0.3, 0.2, 0.5]; 4];
        let config = LstmConfig {
            hidden: 3,
            epochs: 1,
            ..LstmConfig::default()
        };
        let lstm = LstmPredictor::fit(&history, config, &mut ChaCha8Rng::seed_from_u64(3));
        let artifacts = LearnedSelector {
            predictor: TrainedPredictor::Lstm(lstm),
            ..tiny_artifacts()
        };
        let ar = LearnedSelector {
            predictor: TrainedPredictor::Ar(ArPredictor::fit(&history, 2)),
            ..tiny_artifacts()
        };
        let path = tmp_path("shape.json");
        save_artifacts(&artifacts, &ArtifactProvenance::default(), &path).expect("save");
        let lstm_body = std::fs::read_to_string(&path).expect("read back");
        save_artifacts(&ar, &ArtifactProvenance::default(), &path).expect("save");
        let ar_body = std::fs::read_to_string(&path).expect("read back");
        assert!(load_artifacts(&path).is_ok());
        let corruptions = [
            // Header says 4 hidden units; the weight blocks hold 3.
            lstm_body.replace("\"hidden\":3", "\"hidden\":4"),
            lstm_body.replace("\"window\":5", "\"window\":0"),
            ar_body.replace("\"order\":2", "\"order\":3"),
        ];
        for corrupt in corruptions {
            std::fs::write(&path, &corrupt).expect("rewrite");
            let err = match load_artifacts(&path) {
                Err(err) => err,
                Ok((loaded, _)) => {
                    // What a selector would do next with the accepted file.
                    let y = loaded.predictor.predict_next(&[0.2, 0.3, 0.4, 0.1]);
                    panic!("shape-inconsistent artifact accepted (predicted {y})")
                }
            };
            assert!(matches!(err.kind, ErrorKind::Spec { .. }), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hlrn1_rejects_zero_candidate_pool() {
        let path = tmp_path("zero-pool.json");
        save_artifacts(&tiny_artifacts(), &ArtifactProvenance::default(), &path).expect("save");
        let body = std::fs::read_to_string(&path).expect("read back");
        let zero = body.replace("\"candidate_pool\":75", "\"candidate_pool\":0");
        assert_ne!(zero, body);
        std::fs::write(&path, &zero).expect("rewrite");
        let Err(err) = load_artifacts(&path) else {
            panic!("zero candidate pool accepted")
        };
        std::fs::remove_file(&path).ok();
        assert!(matches!(err.kind, ErrorKind::Spec { .. }), "{err}");
    }

    #[test]
    fn hlrn1_naming_an_unknown_predictor_is_a_spec_error() {
        // A predictor kind this build does not know fails to parse
        // instead of loading.
        let path = tmp_path("holt.json");
        save_artifacts(&tiny_artifacts(), &ArtifactProvenance::default(), &path).expect("save");
        let body = std::fs::read_to_string(&path).expect("read back");
        let holt = body.replace("\"Ar\":", "\"Holt\":");
        assert_ne!(holt, body);
        std::fs::write(&path, &holt).expect("rewrite");
        let Err(err) = load_artifacts(&path) else {
            panic!("unknown predictor kind accepted")
        };
        std::fs::remove_file(&path).ok();
        assert!(matches!(err.kind, ErrorKind::Spec { .. }), "{err}");
    }

    #[test]
    fn hlrn1_missing_and_corrupt_files_error() {
        let missing = tmp_path("does-not-exist.json");
        assert!(load_artifacts(&missing).is_err());
        let path = tmp_path("corrupt.json");
        std::fs::write(&path, "{not json").expect("write");
        let Err(err) = load_artifacts(&path) else {
            panic!("corrupt artifact accepted")
        };
        std::fs::remove_file(&path).ok();
        assert!(matches!(err.kind, ErrorKind::Spec { .. }), "{err}");
    }

    #[test]
    fn artifacts_without_meta_field_load_with_default() {
        // Pre-meta artifact JSON (no `use_meta` key) must deserialize
        // with `use_meta = false`.
        let artifacts = LearnedSelector {
            use_meta: false,
            ..tiny_artifacts()
        };
        let mut json = serde_json::to_string(&artifacts).expect("serialize");
        json = json.replace(",\"use_meta\":false", "");
        assert!(!json.contains("use_meta"));
        let loaded: LearnedSelector = serde_json::from_str(&json).expect("deserialize");
        assert!(!loaded.use_meta);
    }
}
