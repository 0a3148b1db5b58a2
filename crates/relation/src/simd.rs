//! Explicit `core::arch::x86_64` word kernels behind runtime tier
//! dispatch: the SIMD layer under [`crate::kernel`]'s 64-row scan ABI.
//!
//! Each function here evaluates one predicate family over up to 64 lanes
//! and returns the match word (`bit i` ⇔ `lanes[i]` matches). Two tiers
//! exist:
//!
//! * [`SimdTier::Scalar`] — the portable per-lane loops; the bit-exact
//!   oracle the vector tier must reproduce, and the tier every host
//!   without AVX2 runs on.
//! * [`SimdTier::Avx2`] — 256-bit vectors selected at runtime via
//!   `is_x86_feature_detected!`.
//!
//! The active tier is resolved once per process ([`active_tier`]) from the
//! host CPU; `SQUID_SIMD=scalar` pins it to the oracle so a whole test
//! suite can run against the scalar loops. Every entry point also accepts
//! an explicit tier so the parity property tests can drive each
//! implementation regardless of which tier the host would pick; a request
//! for a tier the CPU lacks runs the scalar loop.
//!
//! Vector paths run only on full 64-lane words; partial tail words take
//! the scalar loop, which keeps tail masking in one place
//! ([`crate::kernel::tail_mask`]) and the vector bodies branch-free.

use std::sync::OnceLock;

/// Instruction tier a word kernel runs on. Ordered from most portable to
/// most capable; `active_tier()` picks the highest the host supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Per-lane scalar loops (any architecture); the semantic oracle.
    Scalar,
    /// 256-bit AVX2 vectors (runtime-detected).
    Avx2,
}

impl SimdTier {
    /// Short lowercase name (`scalar`/`avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// Does this CPU execute AVX2? (std caches the CPUID probe, so asking per
/// word costs one atomic load.) Always false off x86-64.
#[inline]
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Tiers the current host can actually execute, ascending. `Scalar` is
/// always present; `Avx2` joins when detected.
pub fn available_tiers() -> Vec<SimdTier> {
    let mut tiers = vec![SimdTier::Scalar];
    if has_avx2() {
        tiers.push(SimdTier::Avx2);
    }
    tiers
}

/// The tier every default kernel call dispatches to. Resolved once: the
/// best available tier, unless `SQUID_SIMD=scalar` pins the oracle loops
/// (any other value is ignored).
pub fn active_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        if has_avx2() && std::env::var("SQUID_SIMD").as_deref() != Ok("scalar") {
            SimdTier::Avx2
        } else {
            SimdTier::Scalar
        }
    })
}

/// Whether a full-word call on `tier` takes the AVX2 body. `SimdTier::Avx2`
/// is freely constructible, so the CPU is re-checked on every dispatch:
/// asking for AVX2 on a host without it runs the scalar loop instead of
/// executing instructions the CPU lacks.
#[cfg(target_arch = "x86_64")]
#[inline]
fn takes_avx2(tier: SimdTier, lanes: usize) -> bool {
    lanes == 64 && tier == SimdTier::Avx2 && has_avx2()
}

/// Match word of `lo <= lane <= hi` over up to 64 `i64` lanes.
#[inline]
pub fn int_range_word(tier: SimdTier, lanes: &[i64], lo: i64, hi: i64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if takes_avx2(tier, lanes.len()) {
        // SAFETY: takes_avx2 just confirmed 64 lanes and AVX2 on this CPU.
        return unsafe { x86::int_range_word_avx2(lanes, lo, hi) };
    }
    let _ = tier;
    let mut w = 0u64;
    for (i, &v) in lanes.iter().enumerate() {
        w |= ((lo <= v && v <= hi) as u64) << i;
    }
    w
}

/// Map an `f64` to an `i64` key that orders exactly like
/// `f64::total_cmp`: sign-magnitude IEEE bits folded into two's
/// complement. Lets float range kernels run on integer compares.
#[inline]
pub fn f64_total_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Match word of `lo_key <= total_key(lane) <= hi_key` (total order) over
/// up to 64 `f64` lanes.
#[inline]
pub fn float_range_word(tier: SimdTier, lanes: &[f64], lo_key: i64, hi_key: i64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if takes_avx2(tier, lanes.len()) {
        // SAFETY: takes_avx2 just confirmed 64 lanes and AVX2 on this CPU.
        return unsafe { x86::float_range_word_avx2(lanes, lo_key, hi_key) };
    }
    let _ = tier;
    let mut w = 0u64;
    for (i, &v) in lanes.iter().enumerate() {
        let k = f64_total_key(v);
        w |= ((lo_key <= k && k <= hi_key) as u64) << i;
    }
    w
}

/// Match word of `lane == sym` over up to 64 `u32` symbol lanes.
#[inline]
pub fn sym_eq_word(tier: SimdTier, lanes: &[u32], sym: u32) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if takes_avx2(tier, lanes.len()) {
        // SAFETY: takes_avx2 just confirmed 64 lanes and AVX2 on this CPU.
        return unsafe { x86::sym_eq_word_avx2(lanes, sym) };
    }
    let _ = tier;
    let mut w = 0u64;
    for (i, &v) in lanes.iter().enumerate() {
        w |= ((v == sym) as u64) << i;
    }
    w
}

/// Match word of `lane IN syms` over up to 64 `u32` symbol lanes. The
/// probe set is small (a handful of interned symbols), so the vector path
/// ORs one equality compare per probe.
#[inline]
pub fn sym_in_word(tier: SimdTier, lanes: &[u32], syms: &[u32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if takes_avx2(tier, lanes.len()) {
        // SAFETY: takes_avx2 just confirmed 64 lanes and AVX2 on this CPU.
        return unsafe { x86::sym_in_word_avx2(lanes, syms) };
    }
    let _ = tier;
    let mut w = 0u64;
    for (i, &v) in lanes.iter().enumerate() {
        w |= (syms.contains(&v) as u64) << i;
    }
    w
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The intrinsic bodies. Every function takes exactly 64 lanes (the
    //! callers guarantee it) and mirrors its scalar loop bit for bit.
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn int_range_word_avx2(lanes: &[i64], lo: i64, hi: i64) -> u64 {
        debug_assert_eq!(lanes.len(), 64);
        unsafe {
            let lo_v = _mm256_set1_epi64x(lo);
            let hi_v = _mm256_set1_epi64x(hi);
            let mut w = 0u64;
            for i in 0..16 {
                let v = _mm256_loadu_si256(lanes.as_ptr().add(i * 4) as *const __m256i);
                let below = _mm256_cmpgt_epi64(lo_v, v);
                let above = _mm256_cmpgt_epi64(v, hi_v);
                let bad = _mm256_or_si256(below, above);
                let m = _mm256_movemask_pd(_mm256_castsi256_pd(bad)) as u64;
                w |= (!m & 0xF) << (i * 4);
            }
            w
        }
    }

    /// `f64::total_cmp` key transform for four lanes. AVX2 has no 64-bit
    /// arithmetic shift, so the sign mask comes from a signed compare
    /// against zero.
    #[inline]
    unsafe fn avx2_total_key(bits: __m256i) -> __m256i {
        unsafe {
            let sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), bits);
            _mm256_xor_si256(bits, _mm256_srli_epi64(sign, 1))
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn float_range_word_avx2(lanes: &[f64], lo_key: i64, hi_key: i64) -> u64 {
        debug_assert_eq!(lanes.len(), 64);
        unsafe {
            let lo_v = _mm256_set1_epi64x(lo_key);
            let hi_v = _mm256_set1_epi64x(hi_key);
            let mut w = 0u64;
            for i in 0..16 {
                let bits = _mm256_loadu_si256(lanes.as_ptr().add(i * 4) as *const __m256i);
                let k = avx2_total_key(bits);
                let below = _mm256_cmpgt_epi64(lo_v, k);
                let above = _mm256_cmpgt_epi64(k, hi_v);
                let bad = _mm256_or_si256(below, above);
                let m = _mm256_movemask_pd(_mm256_castsi256_pd(bad)) as u64;
                w |= (!m & 0xF) << (i * 4);
            }
            w
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sym_eq_word_avx2(lanes: &[u32], sym: u32) -> u64 {
        debug_assert_eq!(lanes.len(), 64);
        unsafe {
            let probe = _mm256_set1_epi32(sym as i32);
            let mut w = 0u64;
            for i in 0..8 {
                let v = _mm256_loadu_si256(lanes.as_ptr().add(i * 8) as *const __m256i);
                let eq = _mm256_cmpeq_epi32(v, probe);
                let m = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u64;
                w |= m << (i * 8);
            }
            w
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sym_in_word_avx2(lanes: &[u32], syms: &[u32]) -> u64 {
        debug_assert_eq!(lanes.len(), 64);
        unsafe {
            let mut w = 0u64;
            for i in 0..8 {
                let v = _mm256_loadu_si256(lanes.as_ptr().add(i * 8) as *const __m256i);
                let mut any = _mm256_setzero_si256();
                for &s in syms {
                    let probe = _mm256_set1_epi32(s as i32);
                    any = _mm256_or_si256(any, _mm256_cmpeq_epi32(v, probe));
                }
                let m = _mm256_movemask_ps(_mm256_castsi256_ps(any)) as u64;
                w |= m << (i * 8);
            }
            w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adversarial_ints() -> Vec<i64> {
        let mut v: Vec<i64> = (0..64).map(|i| (i as i64 - 32) * 3).collect();
        v[0] = i64::MIN;
        v[1] = i64::MAX;
        v[2] = i64::MIN + 1;
        v[3] = i64::MAX - 1;
        v[63] = 0;
        v
    }

    fn adversarial_floats() -> Vec<f64> {
        let mut v: Vec<f64> = (0..64).map(|i| (i as f64 - 32.0) * 0.5).collect();
        v[0] = f64::NAN;
        v[1] = -f64::NAN;
        v[2] = f64::INFINITY;
        v[3] = f64::NEG_INFINITY;
        v[4] = -0.0;
        v[5] = 0.0;
        v[6] = f64::MIN_POSITIVE;
        v[7] = -f64::MIN_POSITIVE;
        v
    }

    #[test]
    fn int_range_tiers_agree() {
        let lanes = adversarial_ints();
        let bounds = [
            (i64::MIN, i64::MAX),
            (-10, 10),
            (0, 0),
            (i64::MIN, -1),
            (i64::MAX, i64::MIN), // empty range
        ];
        for &(lo, hi) in &bounds {
            let oracle = int_range_word(SimdTier::Scalar, &lanes, lo, hi);
            for tier in available_tiers() {
                assert_eq!(
                    int_range_word(tier, &lanes, lo, hi),
                    oracle,
                    "tier {tier:?} bounds ({lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn float_range_tiers_agree() {
        let lanes = adversarial_floats();
        let keys = [
            (f64_total_key(-1.0), f64_total_key(1.0)),
            (f64_total_key(f64::NEG_INFINITY), f64_total_key(0.0)),
            (f64_total_key(-0.0), f64_total_key(-0.0)),
            (f64_total_key(f64::INFINITY), f64_total_key(f64::NAN)),
            (i64::MIN, i64::MAX),
        ];
        for &(lo, hi) in &keys {
            let oracle = float_range_word(SimdTier::Scalar, &lanes, lo, hi);
            for tier in available_tiers() {
                assert_eq!(
                    float_range_word(tier, &lanes, lo, hi),
                    oracle,
                    "tier {tier:?} keys ({lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn sym_tiers_agree() {
        let lanes: Vec<u32> = (0..64).map(|i| (i % 7) * 1000).collect();
        let oracle_eq = sym_eq_word(SimdTier::Scalar, &lanes, lanes[5]);
        let probes = vec![lanes[3], lanes[10], u32::MAX];
        let oracle_in = sym_in_word(SimdTier::Scalar, &lanes, &probes);
        for tier in available_tiers() {
            assert_eq!(sym_eq_word(tier, &lanes, lanes[5]), oracle_eq, "{tier:?}");
            assert_eq!(sym_in_word(tier, &lanes, &probes), oracle_in, "{tier:?}");
        }
    }

    /// `SimdTier::Avx2` is freely constructible, so safe callers can ask
    /// for it on a CPU without AVX2: such a request must come back
    /// word-exact with scalar (on an AVX2 host the same assertions are
    /// the vector parity check), and the dispatch gate must follow the
    /// CPU probe rather than the caller's word.
    #[test]
    fn unavailable_tier_requests_are_word_exact_with_scalar() {
        let ints = adversarial_ints();
        let floats = adversarial_floats();
        let syms: Vec<u32> = (0..64).map(|i| (i % 5) * 7).collect();
        let (lo, hi) = (f64_total_key(-1.0), f64_total_key(f64::INFINITY));
        assert_eq!(
            int_range_word(SimdTier::Avx2, &ints, -10, 10),
            int_range_word(SimdTier::Scalar, &ints, -10, 10)
        );
        assert_eq!(
            float_range_word(SimdTier::Avx2, &floats, lo, hi),
            float_range_word(SimdTier::Scalar, &floats, lo, hi)
        );
        assert_eq!(
            sym_eq_word(SimdTier::Avx2, &syms, 14),
            sym_eq_word(SimdTier::Scalar, &syms, 14)
        );
        assert_eq!(
            sym_in_word(SimdTier::Avx2, &syms, &[0, 21, 99]),
            sym_in_word(SimdTier::Scalar, &syms, &[0, 21, 99])
        );
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(takes_avx2(SimdTier::Avx2, 64), has_avx2());
            assert!(!takes_avx2(SimdTier::Scalar, 64));
        }
    }

    #[test]
    fn partial_words_stay_scalar_and_exact() {
        let lanes = &adversarial_ints()[..13];
        for tier in available_tiers() {
            assert_eq!(
                int_range_word(tier, lanes, -10, 10),
                int_range_word(SimdTier::Scalar, lanes, -10, 10)
            );
            assert_eq!(int_range_word(tier, lanes, -10, 10) >> 13, 0);
        }
    }
}
