//! A bit-exact 4-lane `exp` for the CRF lattice blocks (DESIGN.md §5.7).
//!
//! [`exp_in_place`] replaces every element of a slice by its
//! exponential, with the bits `f64::exp` returns for it. On x86_64 with
//! AVX2 and FMA it runs a port of glibc's own `exp` (glibc ≥ 2.28, from
//! ARM's optimized-routines, table size N = 128) four lanes at a time,
//! in the operation order of the FMA build glibc selects on such hosts:
//!
//! ```text
//! fast path iff 2^-54 <= |x| < 512
//! kd = fma(x, InvLn2N, Shift); ki = bits(kd); kd = kd - Shift
//! r  = fma(kd, NegLn2hiN, x); r = fma(kd, NegLn2loN, r)
//! i  = 2*(ki & 127); tail = T[i]; sbits = T[i+1] + (ki << 45)   (u64, wrapping)
//! r2 = r*r
//! t  = fma(fma(r, C3, C2), r2, r + tail); t = fma(r2*r2, fma(r, C5, C4), t)
//! exp(x) = fma(s, t, s) with s = from_bits(sbits)
//! ```
//!
//! A lane with `|x| < 2^-54` (±0 and subnormals included) takes libm's
//! own tiny-input branch, `1 + x`. Every other lane outside the fast
//! path — NaN, ±∞, `|x| ≥ 512` — is recomputed with `f64::exp`, so
//! those results are libm's by construction.
//!
//! The port only runs where it is known to agree with the host's libm.
//! The first call checks, once per process, that AVX2 and FMA are
//! available and that the port returns `f64::exp`'s bits on every one
//! of 2^16 seeded inputs covering every table index and both fast-path
//! edges ([`edge_inputs`] among them). If any check fails, every call
//! is a plain `f64::exp` loop, so a host with another libm, or without
//! the instructions, keeps exactly the bits it had. There is no option
//! to force either path.
//!
//! This is the crate's one module with `unsafe` code: the AVX2 loads,
//! stores and table gathers, and the call into the
//! `#[target_feature]` kernel.

use std::sync::OnceLock;

/// Inputs the start-up probe compares against `f64::exp`.
const PROBE_LEN: usize = 1 << 16;
/// Seed of the probe inputs.
const PROBE_SEED: u64 = 0x5eed_e4b0;

/// `exp` of every element of `xs`, in place, bit-identical to
/// `f64::exp` element by element.
#[inline]
pub fn exp_in_place(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if port_enabled() {
        // SAFETY: `port_enabled` is true only after AVX2 and FMA were
        // detected on this CPU.
        unsafe { avx2::exp_block(xs) };
        return;
    }
    exp_libm(xs);
}

/// The path every call takes when the port is not enabled: `f64::exp`
/// element by element.
#[inline]
fn exp_libm(xs: &mut [f64]) {
    for x in xs {
        *x = x.exp();
    }
}

/// True when [`exp_in_place`] runs the 4-lane port: the CPU has AVX2
/// and FMA and the port matched `f64::exp` on every probe input. Decided
/// on the first call and cached for the life of the process.
pub fn port_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(detect)
}

fn detect() -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // Blocks of 256 on the stack, so the probe adds nothing to the
        // process's peak memory.
        let mut inputs = probe_inputs(PROBE_SEED).peekable();
        let mut xs = [0.0; 256];
        while inputs.peek().is_some() {
            let n = xs.iter_mut().zip(&mut inputs).map(|(x, v)| *x = v).count();
            let mut got = xs;
            // SAFETY: AVX2 and FMA were detected just above.
            unsafe { avx2::exp_block(&mut got[..n]) };
            if xs[..n]
                .iter()
                .zip(&got)
                .any(|(x, g)| g.to_bits() != x.exp().to_bits())
            {
                return false;
            }
        }
        return true;
    }
    false
}

/// SplitMix64: the probe's self-contained input generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`PROBE_LEN`] seeded inputs: [`edge_inputs`], then a rotation of
/// four kinds — the lattice range `[-64, 0]`, every table interval
/// `(n + k/128)·ln 2` in turn (all 128 indices `k`, `n` across the fast
/// path), raw bit patterns with exponents around both edges, and
/// uniform `[-800, 800]`.
fn probe_inputs(seed: u64) -> impl Iterator<Item = f64> {
    let edges = edge_inputs();
    let (mut s, mut k) = (seed, 0u64);
    let rest = (edges.len()..PROBE_LEN).map(move |i| {
        let r = splitmix(&mut s);
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        match i % 4 {
            0 => -64.0 * u,
            1 => {
                let n = (r % 1472) as f64 - 736.0;
                let j = (n * 128.0 + (k % 128) as f64) + (u - 0.5);
                k += 1;
                j * (std::f64::consts::LN_2 / 128.0)
            }
            2 => {
                let exp = 0x3c0 + (r >> 53) % 0x50;
                f64::from_bits((r & 0x800f_ffff_ffff_ffff) | (exp << 52))
            }
            _ => 1600.0 * u - 800.0,
        }
    });
    edges.into_iter().chain(rest)
}

/// The specials (±0, ±∞, NaN, subnormals, both ends of the `f64::exp`
/// range) and the fast-path edges ±2^-54 and ±512 with their four
/// nearest neighbours on each side: the inputs the probe and the
/// exactness tests always include.
pub fn edge_inputs() -> Vec<f64> {
    let mut out = Vec::new();
    for edge in [f64::from_bits(0x3c90_0000_0000_0000), 512.0] {
        for sign in [1.0, -1.0] {
            let b = (sign * edge).to_bits();
            for d in 0..4u64 {
                out.push(f64::from_bits(b + d));
                out.push(f64::from_bits(b - d - 1));
            }
        }
    }
    out.extend([
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 4.0,
        f64::from_bits(1),
        -745.2,
        709.8,
    ]);
    out
}

/// glibc's `__exp_data` constants, as `f64` bit patterns.
const INV_LN2_N: u64 = 0x4067_1547_652b_82fe; // N / ln 2
const NEG_LN2_HI_N: u64 = 0xbf76_2e42_fefa_0000; // −ln 2 / N, high part
const NEG_LN2_LO_N: u64 = 0xbd0c_f79a_bc9e_3b3a; // −ln 2 / N, low part
const SHIFT: u64 = 0x4338_0000_0000_0000; // 0x1.8p52
const C2: u64 = 0x3fdf_ffff_ffff_fdbd;
const C3: u64 = 0x3fc5_5555_5555_543c;
const C4: u64 = 0x3fa5_5555_cf17_2b91;
const C5: u64 = 0x3f81_1111_67a4_d017;

/// `2^(k/128)` for k in 0..128 as pairs `(T[2k], T[2k+1])`, glibc's
/// table. With `H` the f64 nearest to `2^(k/128)`:
///
/// * `T[2k] = bits(round((2^(k/128) − H) / H))`, the relative tail;
/// * `T[2k+1] = bits(H) − (k << 45)`, so that adding `ki << 45` for
///   `ki ≡ k (mod 128)` yields the scale `2^(ki/128)` rounded.
///
/// Computed with 60-digit decimal arithmetic: `2^(k/128)` to 60 digits,
/// `H` and the tail each rounded once to the nearest f64.
#[rustfmt::skip]
static TABLE: [u64; 256] = [
    0x0000000000000000, 0x3ff0000000000000, // k = 0
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335, // k = 1
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, // k = 2
    0xbc905e7a108766d1, 0x3fefe315e86e7f85, // k = 3
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, // k = 4
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de, // k = 5
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, // k = 6
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383, // k = 7
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, // k = 8
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7, // k = 9
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, // k = 10
    0xbc6a033489906e0b, 0x3fef9b66affed31b, // k = 11
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, // k = 12
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc, // k = 13
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, // k = 14
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51, // k = 15
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, // k = 16
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea, // k = 17
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, // k = 18
    0xbc96d99c7611eb26, 0x3fef5be084045cd4, // k = 19
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, // k = 20
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d, // k = 21
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, // k = 22
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96, // k = 23
    0x3c968efde3a8a894, 0x3fef387a6e756238, // k = 24
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f, // k = 25
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, // k = 26
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381, // k = 27
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, // k = 28
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990, // k = 29
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, // k = 30
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56, // k = 31
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, // k = 32
    0x3c864201e2ac744c, 0x3fef0170fc4cd831, // k = 33
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, // k = 34
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1, // k = 35
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, // k = 36
    0xbc9907f81b512d8e, 0x3feeecae6d05d866, // k = 37
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, // k = 38
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5, // k = 39
    0x3c859f48a72a4c6d, 0x3feedea64c123422, // k = 40
    0xbc9312607a28698a, 0x3feeda4504ac801c, // k = 41
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, // k = 42
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897, // k = 43
    0x3c4363ed60c2ac11, 0x3feece086061892d, // k = 44
    0x3c9666093b0664ef, 0x3feeca41ed1d0057, // k = 45
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, // k = 46
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de, // k = 47
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, // k = 48
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d, // k = 49
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, // k = 50
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642, // k = 51
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, // k = 52
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f, // k = 53
    0x3c93350518fdd78e, 0x3feeaf4736b527da, // k = 54
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd, // k = 55
    0x3c9063e1e21c5409, 0x3feeab07dd485429, // k = 56
    0x3c34c7855019c6ea, 0x3feea9268a5946b7, // k = 57
    0x3c9432e62b64c035, 0x3feea76f15ad2148, // k = 58
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09, // k = 59
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, // k = 60
    0xbc845378892be9ae, 0x3feea34634ccc320, // k = 61
    0xbc93cedd78565858, 0x3feea23882552225, // k = 62
    0x3c5710aa807e1964, 0x3feea155d44ca973, // k = 63
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, // k = 64
    0xbc6a12ad8734b982, 0x3feea012750bdabf, // k = 65
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, // k = 66
    0xbc80dc3d54e08851, 0x3fee9f7df9519484, // k = 67
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, // k = 68
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174, // k = 69
    0xbc8619321e55e68a, 0x3fee9feb564267c9, // k = 70
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f, // k = 71
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, // k = 72
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132, // k = 73
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, // k = 74
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12, // k = 75
    0xbc9369b6f13b3734, 0x3feea589994cce13, // k = 76
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad, // k = 77
    0xbc94d450d872576e, 0x3feea8d99b4492ed, // k = 78
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699, // k = 79
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, // k = 80
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c, // k = 81
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, // k = 82
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6, // k = 83
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, // k = 84
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f, // k = 85
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, // k = 86
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba, // k = 87
    0x3c71affc2b91ce27, 0x3feec49182a3f090, // k = 88
    0x3c6dd235e10a73bb, 0x3feec86319e32323, // k = 89
    0xbc87c50422622263, 0x3feecc667b5de565, // k = 90
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33, // k = 91
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, // k = 92
    0x3c90cc319cee31d2, 0x3feed99e1330b358, // k = 93
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, // k = 94
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a, // k = 95
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, // k = 96
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666, // k = 97
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, // k = 98
    0xbc90a40e3da6f640, 0x3feef9728de5593a, // k = 99
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, // k = 100
    0xbc91eee26b588a35, 0x3fef05b030a1064a, // k = 101
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, // k = 102
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09, // k = 103
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, // k = 104
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a, // k = 105
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, // k = 106
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5, // k = 107
    0x3c676b2c6c921968, 0x3fef3720dcef9069, // k = 108
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa, // k = 109
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, // k = 110
    0xbc900dae3875a949, 0x3fef4f87080d89f2, // k = 111
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, // k = 112
    0xbc82919e2040220f, 0x3fef60e316c98398, // k = 113
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, // k = 114
    0x3c843a59ac016b4b, 0x3fef7321f301b460, // k = 115
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, // k = 116
    0xbc892ab93b470dc9, 0x3fef864614f5a129, // k = 117
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, // k = 118
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83, // k = 119
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, // k = 120
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1, // k = 121
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, // k = 122
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97, // k = 123
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, // k = 124
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14, // k = 125
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, // k = 126
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1, // k = 127
];

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{C2, C3, C4, C5, INV_LN2_N, NEG_LN2_HI_N, NEG_LN2_LO_N, SHIFT, TABLE};

    /// `bits` as an `f64` in all four lanes.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn splat(bits: u64) -> __m256d {
        _mm256_castsi256_pd(_mm256_set1_epi64x(bits as i64))
    }

    /// The fast path on four lanes, and the mask of lanes whose result
    /// is final (fast path or tiny input).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(x: __m256d) -> (__m256d, i32) {
        let shift = splat(SHIFT);
        let kd = _mm256_fmadd_pd(x, splat(INV_LN2_N), shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmadd_pd(kd, splat(NEG_LN2_HI_N), x);
        let r = _mm256_fmadd_pd(kd, splat(NEG_LN2_LO_N), r);
        let idx = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, _mm256_set1_epi64x(127)));
        // SAFETY: every index is 2·(ki & 127) ≤ 254, so both gathers
        // read inside the 256-entry table (the second at most entry 255).
        let tail = _mm256_i64gather_pd::<8>(TABLE.as_ptr().cast::<f64>(), idx);
        let sbase = _mm256_i64gather_epi64::<8>(TABLE.as_ptr().add(1).cast::<i64>(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(sbase, _mm256_slli_epi64::<45>(ki)));
        let r2 = _mm256_mul_pd(r, r);
        let t = _mm256_fmadd_pd(
            _mm256_fmadd_pd(r, splat(C3), splat(C2)),
            r2,
            _mm256_add_pd(r, tail),
        );
        let t = _mm256_fmadd_pd(
            _mm256_mul_pd(r2, r2),
            _mm256_fmadd_pd(r, splat(C5), splat(C4)),
            t,
        );
        let y = _mm256_fmadd_pd(s, t, s);
        // Lane classes by |x|: [2^-54, 512) is the fast path, below
        // 2^-54 is libm's `1 + x`; NaN compares false in both.
        let ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
        let lo = _mm256_set1_pd(f64::from_bits(0x3c90_0000_0000_0000));
        let fast = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(ax, lo),
            _mm256_cmp_pd::<_CMP_LT_OQ>(ax, _mm256_set1_pd(512.0)),
        );
        let tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(ax, lo);
        let y = _mm256_blendv_pd(y, _mm256_add_pd(_mm256_set1_pd(1.0), x), tiny);
        (y, _mm256_movemask_pd(_mm256_or_pd(fast, tiny)))
    }

    /// Four lanes in place; lanes the port does not cover are
    /// recomputed with `f64::exp`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_lanes(c: &mut [f64; 4]) {
        let xin = *c;
        // SAFETY: `c` is four contiguous, initialised f64s.
        let (y, done) = exp4(_mm256_loadu_pd(c.as_ptr()));
        _mm256_storeu_pd(c.as_mut_ptr(), y);
        if done != 0b1111 {
            for (k, (o, x)) in c.iter_mut().zip(xin).enumerate() {
                if done & (1 << k) == 0 {
                    *o = x.exp();
                }
            }
        }
    }

    /// `exp` of every element of `xs`, in place.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_block(xs: &mut [f64]) {
        let mut chunks = xs.chunks_exact_mut(4);
        for c in &mut chunks {
            exp_lanes(c.try_into().expect("chunk of four"));
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            // The tail runs through the same lanes, padded with an
            // input the fast path covers.
            let mut c = [-1.0; 4];
            c[..rest.len()].copy_from_slice(rest);
            exp_lanes(&mut c);
            rest.copy_from_slice(&c[..rest.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn libm_bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.exp().to_bits()).collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fallback_path_is_libm_on_every_host() {
        let mut xs = edge_inputs();
        xs.extend(probe_inputs(7).take(4096));
        let want = libm_bits(&xs);
        exp_libm(&mut xs);
        assert_eq!(bits(&xs), want);
    }

    #[test]
    fn lanes_outside_the_port_are_libm_results() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // Specials in every lane position and every block length
            // mod 4, mixed with fast-path lanes.
            let sp = edge_inputs();
            for len in 1..=9 {
                for off in 0..sp.len() {
                    let mut xs: Vec<f64> = (0..len)
                        .map(|i| {
                            if i % 2 == 0 {
                                sp[(off + i) % sp.len()]
                            } else {
                                -1.5 * i as f64
                            }
                        })
                        .collect();
                    let want: Vec<Option<u64>> = xs
                        .iter()
                        .map(|&x| {
                            let fast = (2f64.powi(-54)..512.0).contains(&x.abs());
                            (!fast).then(|| x.exp().to_bits())
                        })
                        .collect();
                    // SAFETY: AVX2 and FMA were detected just above.
                    unsafe { avx2::exp_block(&mut xs) };
                    for (g, w) in xs.iter().zip(&want) {
                        if let Some(w) = w {
                            assert_eq!(g.to_bits(), *w, "len {len} off {off}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn probe_inputs_cover_every_table_index_and_both_edges() {
        let xs: Vec<f64> = probe_inputs(PROBE_SEED).collect();
        assert_eq!(xs.len(), PROBE_LEN);
        let mut seen = [false; 128];
        for &x in &xs {
            if (2f64.powi(-54)..512.0).contains(&x.abs()) {
                let k = (x * (128.0 / std::f64::consts::LN_2)).round() as i64;
                seen[k.rem_euclid(128) as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "table indices missed");
        let lo = 2f64.powi(-54);
        for edge in [lo, 512.0] {
            for sign in [1.0, -1.0] {
                let e = sign * edge;
                assert!(xs.contains(&e));
                assert!(xs
                    .iter()
                    .any(|&x| x.abs() < edge && (x - e).abs() < edge * 1e-15));
                assert!(xs
                    .iter()
                    .any(|&x| x.abs() > edge && (x - e).abs() < edge * 1e-15));
            }
        }
    }

    #[test]
    fn table_scales_are_glibc_exp2_of_k_over_128() {
        for k in 0..128u64 {
            let h = f64::from_bits(TABLE[2 * k as usize + 1].wrapping_add(k << 45));
            assert_eq!(h, (k as f64 / 128.0).exp2(), "k = {k}");
            let tail = f64::from_bits(TABLE[2 * k as usize]);
            assert!(tail.abs() <= 2f64.powi(-53), "k = {k}");
        }
    }

    #[test]
    fn dispatch_matches_libm() {
        let mut xs: Vec<f64> = probe_inputs(3).collect();
        let want = libm_bits(&xs);
        exp_in_place(&mut xs);
        assert_eq!(bits(&xs), want);
    }
}
