//! The 4-lane `exp` port against `f64::exp`, bit for bit, on 10.2
//! million seeded inputs (DESIGN.md §5.7). Skipped, with a note on
//! stderr, where the port is not enabled: every call is then `f64::exp`
//! itself. `scripts/ci.sh` also runs this file in release, the codegen
//! that ships.

use histal_models::vexp::{edge_inputs, exp_in_place, port_enabled};

const PER_KIND: usize = 1_700_000;

/// SplitMix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs `PER_KIND` inputs from `gen` through the port in blocks of
/// varying length (every length mod 4, so the padded tail is covered)
/// and asserts every result equals `f64::exp`'s bits.
fn check(kind: &str, seed: u64, mut gen: impl FnMut(u64, usize) -> f64) {
    let mut s = seed;
    let mut done = 0;
    let mut block = Vec::new();
    while done < PER_KIND {
        let len = (289 + (next(&mut s) % 7) as usize).min(PER_KIND - done);
        block.clear();
        for i in 0..len {
            block.push(gen(next(&mut s), done + i));
        }
        let inputs = block.clone();
        exp_in_place(&mut block);
        for (x, y) in inputs.iter().zip(&block) {
            assert_eq!(
                y.to_bits(),
                x.exp().to_bits(),
                "{kind}: exp({x:e}) [{:#018x}]",
                x.to_bits()
            );
        }
        done += len;
    }
}

#[test]
fn port_matches_libm_on_ten_million_inputs() {
    if !port_enabled() {
        eprintln!("exp port not enabled on this host; every exp is f64::exp");
        return;
    }
    // Every bit pattern: all exponents, signs, NaNs and subnormals.
    check("bit patterns", 1, |r, _| f64::from_bits(r));
    check("[-800, 0]", 2, |r, _| -800.0 * unit(r));
    check("[-700, 700]", 3, |r, _| 1400.0 * unit(r) - 700.0);
    // Within 2^20 ulps of ±2^-54 and ±512, both signs and sides.
    check("edges", 4, |r, _| {
        let edge = if r & 1 == 0 { 2f64.powi(-54) } else { 512.0 };
        let sign = if r & 2 == 0 { 1.0 } else { -1.0 };
        let d = (r >> 2) % (1 << 21);
        f64::from_bits((sign * edge).to_bits() + d - (1 << 20))
    });
    // Each table interval in turn: index i % 128, scale across the
    // whole fast path, anywhere inside the interval.
    check("table intervals", 5, |r, i| {
        let n = (r % 1472) as f64 - 736.0;
        let j = n * 128.0 + (i % 128) as f64 + (unit(r) - 0.5);
        j * (std::f64::consts::LN_2 / 128.0)
    });
    // ±0, ±∞, NaN, subnormals, tiny values and the ends of the range.
    let edges = edge_inputs();
    check("specials", 6, |r, i| match i % 4 {
        0 => edges[(r % edges.len() as u64) as usize],
        1 => f64::from_bits(r & 0x800f_ffff_ffff_ffff),
        2 => f64::from_bits((r & 0x803f_ffff_ffff_ffff) | (0x3b0 << 52)),
        _ => -745.2 + 1455.0 * unit(r),
    });
}

#[test]
fn edges_are_exact_through_the_dispatch() {
    // On any host, whichever path it runs.
    let mut xs = edge_inputs();
    let want: Vec<u64> = xs.iter().map(|x| x.exp().to_bits()).collect();
    exp_in_place(&mut xs);
    assert_eq!(xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
}

/// glibc ≥ 2.28 on a CPU with AVX2 and FMA is the host the port is
/// written for, so it must pass its probe there. A failure costs no
/// bits (every call falls back to `f64::exp`), only the lattice
/// speed-up: it means this libm's `exp` no longer matches the port.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[test]
fn the_port_is_enabled_on_glibc_with_avx2_and_fma() {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        assert!(port_enabled());
    }
}
