//! Bit pins for the `ChaCha8Rng` output stream. Every dropout mask,
//! shuffle and sampled split in the workspace draws from this generator,
//! so the stream is part of every other pin; these hashes pin it directly,
//! through the mixes of `next_u32`, `next_u64`, `gen::<f64>` and
//! `fill_bytes` the call sites use, at offsets that straddle the block
//! buffer's refills, and across a clone taken mid-buffer.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Draw a fixed script of 600 mixed calls (about 1,000 words, so dozens
/// of refills at any buffer width) and hash every output's bits. The
/// script's word offsets drift between even and odd, so `next_u64` and
/// `fill_bytes` regularly read across a refill.
fn script_hash(rng: &mut ChaCha8Rng) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for step in 0..600_usize {
        match (step * 7 + step / 5) % 5 {
            0 => fnv(&mut h, &rng.next_u32().to_le_bytes()),
            1 => fnv(&mut h, &rng.next_u64().to_le_bytes()),
            2 => fnv(&mut h, &rng.gen::<f64>().to_bits().to_le_bytes()),
            3 => {
                let mut bytes = [0u8; 13];
                let len = 1 + step % 13;
                rng.fill_bytes(&mut bytes[..len]);
                fnv(&mut h, &bytes[..len]);
            }
            _ => {
                for _ in 0..step % 4 {
                    fnv(&mut h, &rng.next_u32().to_le_bytes());
                }
            }
        }
    }
    h
}

fn full_key() -> [u8; 32] {
    let mut key = [0u8; 32];
    for (i, byte) in key.iter_mut().enumerate() {
        *byte = (i as u8).wrapping_mul(0x9d) ^ 0x5a;
    }
    key
}

#[test]
fn mixed_draw_streams_are_pinned() {
    let pinned: [(u64, u64); 5] = [
        (0, 0x0737_0f22_4384_7417),
        (1, 0x2a62_5ab0_50e5_606a),
        (42, 0x059d_2309_f26d_cd92),
        (0x5eed_1234_abcd, 0xc973_bc93_626f_ea50),
        (u64::MAX, 0x7428_a8df_9e04_8c59),
    ];
    for (seed, want) in pinned {
        let got = script_hash(&mut ChaCha8Rng::seed_from_u64(seed));
        assert_eq!(got, want, "stream hash for seed {seed:#x}: {got:#018x}");
    }
    let got = script_hash(&mut ChaCha8Rng::from_seed(full_key()));
    assert_eq!(
        got, 0x186f_90db_3c4f_a59e,
        "stream hash for the full key: {got:#018x}"
    );
}

#[test]
fn a_clone_taken_mid_buffer_continues_the_same_pinned_stream() {
    for (seed, skip, want) in [
        (7_u64, 37_usize, 0x8169_75d2_39af_24a4_u64),
        (7, 15, 0x9f5f_8f53_d5cd_7f75),
        (1_000_003, 31, 0x7ffa_ae65_10d6_664a),
    ] {
        let mut a = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..skip {
            a.next_u32();
        }
        let mut b = a.clone();
        let got = script_hash(&mut b);
        assert_eq!(
            script_hash(&mut a),
            got,
            "clone diverged (seed {seed}, skip {skip})"
        );
        assert_eq!(
            got, want,
            "clone stream hash (seed {seed}, skip {skip}): {got:#018x}"
        );
    }
}

#[test]
fn next_u64_is_two_consecutive_words_low_first_at_every_offset() {
    let mut words = ChaCha8Rng::seed_from_u64(3);
    let stream: Vec<u32> = (0..200).map(|_| words.next_u32()).collect();
    for offset in 0..stream.len() - 2 {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..offset {
            rng.next_u32();
        }
        let want = u64::from(stream[offset]) | (u64::from(stream[offset + 1]) << 32);
        assert_eq!(rng.next_u64(), want, "next_u64 at word offset {offset}");
    }
}
