//! Model persistence: JSON save/load for the built-in models.
//!
//! Both substrates are plain serde structs, so persistence is
//! deliberately boring — but shipping it (with version tagging) saves
//! every downstream user from writing the same ten lines and from silent
//! schema drift.

use std::io::{Read, Write};
use std::path::Path;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// Current on-disk schema version. Bump on breaking model-layout changes.
/// v2: weight matrices went feature-major (`w[idx*k + c]`, CRF
/// `emit[idx*l + y]`) for the row kernels; v1 class-major payloads
/// would deserialize into transposed weights, so they must be rejected.
pub const SCHEMA_VERSION: u32 = 2;

/// Envelope written to disk: version tag + payload.
#[derive(Serialize, Deserialize)]
struct Envelope<T> {
    schema_version: u32,
    model: T,
}

/// Errors from [`save_model`] / [`load_model`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// The file's schema version is unsupported.
    Version {
        /// Version found in the file.
        found: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "model persistence I/O error: {e}"),
            Self::Json(e) => write!(f, "model persistence JSON error: {e}"),
            Self::Version { found } => write!(
                f,
                "unsupported model schema version {found} (this build reads {SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Json(e) => Some(e),
            Self::Version { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e)
    }
}

/// Serialize any serde-serializable model to `path` with a version tag.
pub fn save_model<T: Serialize>(model: &T, path: &Path) -> Result<(), PersistError> {
    let envelope = Envelope {
        schema_version: SCHEMA_VERSION,
        model,
    };
    let body = serde_json::to_vec(&envelope)?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(&body)?;
    Ok(())
}

/// Load a model saved by [`save_model`], rejecting incompatible schema
/// versions.
pub fn load_model<T: DeserializeOwned>(path: &Path) -> Result<T, PersistError> {
    let mut body = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut body)?;
    let envelope: Envelope<T> = serde_json::from_slice(&body)?;
    if envelope.schema_version != SCHEMA_VERSION {
        return Err(PersistError::Version {
            found: envelope.schema_version,
        });
    }
    Ok(envelope.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Document, TextClassifier, TextClassifierConfig};
    use histal_core::model::Model;
    use histal_text::FeatureHasher;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("histal-persist-{name}-{}.json", std::process::id()))
    }

    #[test]
    fn classifier_round_trips() {
        let hasher = FeatureHasher::new(1 << 10);
        let docs: Vec<Document> = (0..20)
            .map(|i| {
                let word = if i % 2 == 0 { "pos" } else { "neg" };
                Document::from_tokens(&[word.to_string(), format!("f{i}")], &hasher)
            })
            .collect();
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let mut model = TextClassifier::new(TextClassifierConfig {
            n_classes: 2,
            n_features: 1 << 10,
            epochs: 5,
            ..Default::default()
        });
        let s: Vec<&Document> = docs.iter().collect();
        let l: Vec<&usize> = labels.iter().collect();
        model.fit(&s, &l, &mut ChaCha8Rng::seed_from_u64(1));

        let path = tmp("clf");
        save_model(&model, &path).unwrap();
        let restored: TextClassifier = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for d in &docs {
            // JSON float round-trip is exact per value, but f32 feature
            // values re-enter the f64 dot product with a fresh rounding
            // path; allow a ULP-scale tolerance.
            for (a, b) in model.predict_proba(d).iter().zip(restored.predict_proba(d)) {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let path = tmp("ver");
        std::fs::write(&path, r#"{"schema_version": 999, "model": 42}"#).unwrap();
        let err = load_model::<u32>(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Version { found: 999 }));
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_model::<u32>(Path::new("/nonexistent/histal-nope.json")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn corrupt_json_is_json_error() {
        let path = tmp("bad");
        std::fs::write(&path, "not json at all").unwrap();
        let err = load_model::<u32>(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Json(_)));
    }
}
