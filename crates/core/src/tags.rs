//! BIOES tag scheme for named entity recognition.
//!
//! The paper converts the CoNLL BIO annotations to BIOES (following Ma &
//! Hovy 2016). Labels are dense `u16` ids: id 0 is `O`, then four ids per
//! entity type in B, I, E, S order.

use serde::{Deserialize, Serialize};

/// Position of a token within an entity span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Position {
    /// Beginning of a multi-token entity.
    B,
    /// Inside a multi-token entity.
    I,
    /// End of a multi-token entity.
    E,
    /// Single-token entity.
    S,
}

/// A BIOES tag inventory over a fixed list of entity types.
///
/// ```
/// use histal_core::tags::TagScheme;
/// let scheme = TagScheme::conll(); // PER/ORG/LOC/MISC → 17 labels
/// let tags = scheme.bio_to_bioes(&["O", "B-PER", "I-PER"]);
/// assert_eq!(scheme.decode_spans(&tags), vec![(1, 2, 0)]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TagScheme {
    entity_types: Vec<String>,
}

impl TagScheme {
    /// Standard CoNLL inventory: PER, ORG, LOC, MISC.
    pub fn conll() -> Self {
        Self::new(["PER", "ORG", "LOC", "MISC"])
    }

    /// A scheme over arbitrary entity type names.
    pub fn new<I, S>(types: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let entity_types: Vec<String> = types.into_iter().map(Into::into).collect();
        assert!(
            !entity_types.is_empty(),
            "at least one entity type required"
        );
        Self { entity_types }
    }

    /// Total number of labels: `1 + 4 × types`.
    pub fn n_labels(&self) -> usize {
        1 + 4 * self.entity_types.len()
    }

    /// The `O` (outside) tag id.
    pub fn outside(&self) -> u16 {
        0
    }

    /// Tag id for a position within entity type `ty`.
    ///
    /// # Panics
    /// Panics if `ty` is out of range.
    pub fn tag(&self, pos: Position, ty: usize) -> u16 {
        assert!(
            ty < self.entity_types.len(),
            "entity type {ty} out of range"
        );
        let offset = match pos {
            Position::B => 0,
            Position::I => 1,
            Position::E => 2,
            Position::S => 3,
        };
        (1 + 4 * ty + offset) as u16
    }

    /// Decompose a tag id into its position and type; `None` for `O`.
    pub(crate) fn parse(&self, tag: u16) -> Option<(Position, usize)> {
        if tag == 0 || (tag as usize) >= self.n_labels() {
            return None;
        }
        let idx = (tag - 1) as usize;
        let ty = idx / 4;
        let pos = match idx % 4 {
            0 => Position::B,
            1 => Position::I,
            2 => Position::E,
            _ => Position::S,
        };
        Some((pos, ty))
    }

    /// Encode a span of `len` tokens of type `ty` as BIOES tags.
    pub fn encode_span(&self, len: usize, ty: usize) -> Vec<u16> {
        match len {
            0 => Vec::new(),
            1 => vec![self.tag(Position::S, ty)],
            _ => {
                let mut tags = Vec::with_capacity(len);
                tags.push(self.tag(Position::B, ty));
                for _ in 1..len - 1 {
                    tags.push(self.tag(Position::I, ty));
                }
                tags.push(self.tag(Position::E, ty));
                tags
            }
        }
    }

    /// Decode a tag sequence into `(start, end_inclusive, type)` spans.
    ///
    /// Tolerant of ill-formed sequences (as model output can be): a span
    /// is emitted for every maximal run of same-type non-`O` tags that
    /// *starts* at a `B`/`S` and for `S` singletons; dangling `I`/`E`
    /// without an opener are treated as openers (conventional lenient
    /// decoding, matching `conlleval`'s behaviour closely enough for
    /// relative comparisons).
    pub fn decode_spans(&self, tags: &[u16]) -> Vec<(usize, usize, usize)> {
        let mut spans = Vec::new();
        let mut open: Option<(usize, usize)> = None; // (start, ty)
        for (i, &t) in tags.iter().enumerate() {
            match self.parse(t) {
                None => {
                    if let Some((start, ty)) = open.take() {
                        spans.push((start, i - 1, ty));
                    }
                }
                Some((Position::B, ty)) => {
                    if let Some((start, prev_ty)) = open.take() {
                        spans.push((start, i - 1, prev_ty));
                    }
                    open = Some((i, ty));
                }
                Some((Position::S, ty)) => {
                    if let Some((start, prev_ty)) = open.take() {
                        spans.push((start, i - 1, prev_ty));
                    }
                    spans.push((i, i, ty));
                }
                Some((Position::I, ty)) => match open {
                    Some((_, prev_ty)) if prev_ty == ty => {}
                    _ => {
                        if let Some((start, prev_ty)) = open.take() {
                            spans.push((start, i - 1, prev_ty));
                        }
                        open = Some((i, ty));
                    }
                },
                Some((Position::E, ty)) => match open.take() {
                    Some((start, prev_ty)) if prev_ty == ty => {
                        spans.push((start, i, ty));
                    }
                    other => {
                        if let Some((start, prev_ty)) = other {
                            spans.push((start, i - 1, prev_ty));
                        }
                        spans.push((i, i, ty));
                    }
                },
            }
        }
        if let Some((start, ty)) = open {
            spans.push((start, tags.len() - 1, ty));
        }
        spans
    }
}

impl TagScheme {
    /// Convert a BIO tag-*string* sequence (`"B-PER"`, `"I-PER"`, `"O"`)
    /// into this scheme's BIOES ids — the preprocessing step the paper
    /// applies to the CoNLL corpora ("we convert its BIO tagging scheme
    /// into the BIOES tagging scheme", §5.1.2).
    ///
    /// Unknown entity types and malformed tags map to `O` (lenient, like
    /// the standard converters). A `B`/`I` token becomes `S`/`E` when the
    /// entity does not continue at the next position.
    pub fn bio_to_bioes(&self, bio: &[&str]) -> Vec<u16> {
        let parse = |t: &str| -> Option<(char, usize)> {
            let (prefix, ty) = t.split_once('-')?;
            let p = prefix.chars().next()?;
            let ty_idx = self.entity_types.iter().position(|e| e == ty)?;
            Some((p, ty_idx))
        };
        let n = bio.len();
        let mut out = vec![0u16; n];
        for i in 0..n {
            let Some((p, ty)) = parse(bio[i]) else {
                continue;
            };
            if p != 'B' && p != 'I' {
                continue;
            }
            // Does the same entity continue at i+1 (an I of the same type)?
            let continues =
                i + 1 < n && matches!(parse(bio[i + 1]), Some(('I', next_ty)) if next_ty == ty);
            // Is this the start of a span? (B always; I without a same-type
            // predecessor is a lenient start.)
            let starts = p == 'B'
                || i == 0
                || !matches!(parse(bio[i - 1]), Some((q, prev_ty)) if prev_ty == ty && (q == 'B' || q == 'I'));
            out[i] = match (starts, continues) {
                (true, true) => self.tag(Position::B, ty),
                (true, false) => self.tag(Position::S, ty),
                (false, true) => self.tag(Position::I, ty),
                (false, false) => self.tag(Position::E, ty),
            };
        }
        out
    }

    /// Convert BIOES ids back to BIO tag strings.
    pub fn bioes_to_bio(&self, tags: &[u16]) -> Vec<String> {
        tags.iter()
            .map(|&t| match self.parse(t) {
                None => "O".to_string(),
                Some((Position::B | Position::S, ty)) => format!("B-{}", self.entity_types[ty]),
                Some((Position::I | Position::E, ty)) => format!("I-{}", self.entity_types[ty]),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> TagScheme {
        TagScheme::conll()
    }

    #[test]
    fn label_count() {
        assert_eq!(scheme().n_labels(), 17);
    }

    #[test]
    fn tag_roundtrip() {
        let s = scheme();
        for ty in 0..s.entity_types.len() {
            for pos in [Position::B, Position::I, Position::E, Position::S] {
                let t = s.tag(pos, ty);
                assert_eq!(s.parse(t), Some((pos, ty)));
            }
        }
        assert_eq!(s.parse(0), None);
        assert_eq!(s.parse(999), None);
    }

    #[test]
    fn encode_span_shapes() {
        let s = scheme();
        assert_eq!(s.encode_span(1, 0), vec![s.tag(Position::S, 0)]);
        assert_eq!(
            s.encode_span(3, 1),
            vec![
                s.tag(Position::B, 1),
                s.tag(Position::I, 1),
                s.tag(Position::E, 1)
            ]
        );
        assert!(s.encode_span(0, 0).is_empty());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = scheme();
        // O B-PER I-PER E-PER O S-LOC
        let mut tags = vec![0u16];
        tags.extend(s.encode_span(3, 0));
        tags.push(0);
        tags.extend(s.encode_span(1, 2));
        let spans = s.decode_spans(&tags);
        assert_eq!(spans, vec![(1, 3, 0), (5, 5, 2)]);
    }

    #[test]
    fn decode_tolerates_dangling_inside() {
        let s = scheme();
        // I-PER I-PER O — lenient: treated as a PER span.
        let i = s.tag(Position::I, 0);
        let spans = s.decode_spans(&[i, i, 0]);
        assert_eq!(spans, vec![(0, 1, 0)]);
    }

    #[test]
    fn decode_type_switch_closes_span() {
        let s = scheme();
        let b_per = s.tag(Position::B, 0);
        let i_org = s.tag(Position::I, 1);
        let spans = s.decode_spans(&[b_per, i_org]);
        assert_eq!(spans, vec![(0, 0, 0), (1, 1, 1)]);
    }

    #[test]
    fn decode_unclosed_span_at_end() {
        let s = scheme();
        let b = s.tag(Position::B, 1);
        let i = s.tag(Position::I, 1);
        assert_eq!(s.decode_spans(&[0, b, i]), vec![(1, 2, 1)]);
    }

    #[test]
    fn decode_empty() {
        assert!(scheme().decode_spans(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_type_panics() {
        let _ = scheme().tag(Position::B, 99);
    }

    #[test]
    fn bio_to_bioes_basic() {
        let s = scheme();
        // O B-PER I-PER O B-LOC
        let out = s.bio_to_bioes(&["O", "B-PER", "I-PER", "O", "B-LOC"]);
        assert_eq!(
            out,
            vec![
                0,
                s.tag(Position::B, 0),
                s.tag(Position::E, 0),
                0,
                s.tag(Position::S, 2),
            ]
        );
    }

    #[test]
    fn bio_to_bioes_three_token_span() {
        let s = scheme();
        let out = s.bio_to_bioes(&["B-ORG", "I-ORG", "I-ORG"]);
        assert_eq!(
            out,
            vec![
                s.tag(Position::B, 1),
                s.tag(Position::I, 1),
                s.tag(Position::E, 1)
            ]
        );
    }

    #[test]
    fn bio_to_bioes_adjacent_spans() {
        let s = scheme();
        // B-PER B-PER → two singletons.
        let out = s.bio_to_bioes(&["B-PER", "B-PER"]);
        assert_eq!(out, vec![s.tag(Position::S, 0), s.tag(Position::S, 0)]);
    }

    #[test]
    fn bio_to_bioes_lenient_on_dangling_i_and_unknown_types() {
        let s = scheme();
        // I-PER without an opener → treated as a span start.
        let out = s.bio_to_bioes(&["I-PER", "I-PER"]);
        assert_eq!(out, vec![s.tag(Position::B, 0), s.tag(Position::E, 0)]);
        // Unknown type and garbage map to O.
        assert_eq!(s.bio_to_bioes(&["B-XYZ", "garbage", "O"]), vec![0, 0, 0]);
    }

    #[test]
    fn bio_bioes_roundtrip_preserves_spans() {
        let s = scheme();
        let bio = [
            "O", "B-PER", "I-PER", "O", "B-LOC", "I-LOC", "I-LOC", "B-MISC",
        ];
        let bioes = s.bio_to_bioes(&bio);
        let back = s.bioes_to_bio(&bioes);
        assert_eq!(back, bio.to_vec());
    }
}
