//! Bit pins for whole active-learning runs on the text task: the FNV-1a
//! hash of every curve metric's bits and every selected id. A change to
//! classifier training, evaluation or selection that moves a single low
//! bit of a trained weight shows up here.

mod common;

use common::{run_text, tiny_text_task};
use histal::prelude::*;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn entropy_run_hash(n_classes: usize, n: usize, seed: u64) -> u64 {
    let task = tiny_text_task(n_classes, n, seed);
    let config = PoolConfig {
        batch_size: 10,
        rounds: 4,
        init_labeled: 13,
        history_max_len: None,
        record_history: false,
        ann: None,
    };
    let result = run_text(&task, Strategy::new(BaseStrategy::Entropy), config, seed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for point in &result.curve {
        fnv(&mut h, &point.metric.to_bits().to_le_bytes());
    }
    for round in &result.rounds {
        for &id in &round.selected {
            fnv(&mut h, &(id as u64).to_le_bytes());
        }
    }
    h
}

#[test]
fn binary_entropy_run_bits_are_pinned() {
    let h = entropy_run_hash(2, 300, 31);
    assert_eq!(h, 0x9f3d_aad3_94a9_edc1, "pinned hash {h:#018x}");
}

#[test]
fn six_class_entropy_run_bits_are_pinned() {
    let h = entropy_run_hash(6, 300, 32);
    assert_eq!(h, 0x7973_30c0_28cb_12fa, "pinned hash {h:#018x}");
}
