//! Checked numeric conversions for the policy core.
//!
//! pulse-core warns on `clippy::as_conversions` (see `lib.rs`): an `as` cast
//! silently truncates, wraps, or loses precision, and policy math must not
//! do any of those silently. The handful of conversions the core genuinely
//! needs are centralized here with their safety arguments attached, so the
//! rest of the crate uses named, checked operations instead of `as`.

/// A count (histogram bucket, arrival total, variant index) as an `f64`.
///
/// Exact for counts below 2^53; the debug assert documents that bound. PULSE
/// counts minutes and invocations — astronomically below 2^53 — so the
/// conversion is lossless in practice and merely rounds if the bound were
/// ever exceeded.
#[inline]
// usize -> f64 is value-preserving below 2^53, guaranteed by the debug_assert.
#[allow(clippy::as_conversions)]
pub(crate) fn count_to_f64(n: usize) -> f64 {
    debug_assert!(n < (1usize << 53), "count too large for exact f64: {n}");
    n as f64
}

/// A `u64` count/minute value as an `f64` (same bound as [`count_to_f64`]).
#[inline]
// u64 -> f64 is value-preserving below 2^53, guaranteed by the debug_assert.
#[allow(clippy::as_conversions)]
pub(crate) fn u64_to_f64(n: u64) -> f64 {
    debug_assert!(n < (1u64 << 53), "value too large for exact f64: {n}");
    n as f64
}

/// A minute-gap (`u64`) as a vector index. Gaps that exceed `usize::MAX`
/// (impossible on 64-bit hosts, conceivable on 32-bit) saturate, which every
/// caller treats as "out of window" via bounds-checked indexing.
#[inline]
pub(crate) fn gap_to_index(gap: u64) -> usize {
    usize::try_from(gap).unwrap_or(usize::MAX)
}

/// A window length (`u32`) as a vector length.
#[inline]
pub(crate) fn window_to_len(window: u32) -> usize {
    // u32 always fits in usize on the 16-bit-free platforms Rust supports.
    gap_to_index(u64::from(window))
}

/// A vector length as a `u64` minute count. `usize → u64` never truncates on
/// the platforms Rust supports; the saturation is defensive only.
#[inline]
pub(crate) fn len_to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A plan length as a `u32` window size. Plans are built from `u32` windows,
/// so the saturating conversion is exact in practice.
#[inline]
pub(crate) fn len_to_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// `⌊x⌋` as a band/bucket index for a non-negative, in-range `x`.
///
/// Callers must pass `x` in `[0, usize::MAX]`; policy call sites pass
/// `p * n` with `p ∈ [0, 1]` and `n` a small variant count, so the result is
/// a small non-negative integer and the float-to-int conversion is exact.
#[inline]
// f64 -> usize after floor() of a small non-negative band product bounded by
// the variant count.
#[allow(
    clippy::as_conversions,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub(crate) fn floor_index(x: f64) -> usize {
    debug_assert!(x >= 0.0, "floor_index of negative value: {x}");
    x.floor() as usize
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    #[test]
    fn count_conversion_is_exact_for_small_counts() {
        assert_eq!(count_to_f64(0), 0.0);
        assert_eq!(count_to_f64(12_345), 12_345.0);
        assert_eq!(u64_to_f64(7), 7.0);
    }

    #[test]
    fn gap_index_roundtrips() {
        assert_eq!(gap_to_index(0), 0);
        assert_eq!(gap_to_index(42), 42);
        assert_eq!(window_to_len(60), 60);
    }

    #[test]
    fn length_conversions_roundtrip() {
        assert_eq!(len_to_u64(0), 0);
        assert_eq!(len_to_u64(1000), 1000);
        assert_eq!(len_to_u32(10), 10);
    }

    #[test]
    fn floor_index_truncates_toward_zero() {
        assert_eq!(floor_index(0.0), 0);
        assert_eq!(floor_index(0.999), 0);
        assert_eq!(floor_index(2.0), 2);
        assert_eq!(floor_index(2.7), 2);
    }
}
