//! Why a site-format KV page gives the exact page's scores bit for bit.
//!
//! An OPAL model caches K rows the K/V site quantizer already rounded: a
//! block of seven-bit codes at one power-of-two step, with four bf16
//! outliers (code `0`) — and its queries are rounded the same way. The
//! exact page stores those values as `f32` and scores with `ops::dot`; the
//! site page stores the codes and scores with `ops::dot_codes_tile`, then
//! meets the block's step and the outlier terms in `f64` (`opal_model`'s
//! `PagedKv::scores_into`, held bitwise to this arithmetic by its page-walk
//! test). Both round once, at the end, if every `f64` partial sum is exact.
//! These tests sweep an outlier 2^k above its block's largest code and pin
//! where each schedule stops matching `ops::dot`:
//!
//! - the site walk matches through every spread a served model can reach
//!   (its `f64` partial sums hold 53 bits);
//! - sixteen `f32` lanes over the codes, the walk's previous schedule,
//!   stop matching once a query outlier pushes a lane sum past 24 bits, and
//!   [`ExactInF32`], which picks the walk's `f32` lanes, has refused every
//!   such query before that.

use opal_tensor::ops::{self, ExactInF32};

const WIDTH: usize = 128;
const OUTLIERS: usize = 4;
/// Rows drawn per spread.
const ROWS: usize = 48;

/// A deterministic stream of `u32`s.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }
}

/// One site-quantized row: seven-bit codes at `step`, and `OUTLIERS`
/// bf16 values (code `0`) about 2^`spread` above the block's largest code.
struct SiteRow {
    codes: Vec<i8>,
    step: f32,
    outliers: Vec<(usize, f32)>,
}

impl SiteRow {
    fn draw(rng: &mut Stream, step: f32, spread: i32) -> Self {
        let mut codes: Vec<i8> = (0..WIDTH).map(|_| (rng.next() % 127) as i8 - 63).collect();
        let mut outliers: Vec<(usize, f32)> = Vec::new();
        while outliers.len() < OUTLIERS {
            let lane = rng.next() as usize % WIDTH;
            if outliers.iter().any(|&(j, _)| j == lane) {
                continue;
            }
            codes[lane] = 0;
            // A bf16 value (eight significant bits) 2^spread above 63 steps.
            let mantissa = 128 + (rng.next() % 128) as i32;
            let sign = if rng.next().is_multiple_of(2) { 1.0 } else { -1.0 };
            let value = sign * mantissa as f32 * 2f32.powi(spread - 1) * step;
            outliers.push((lane, value));
        }
        SiteRow { codes, step, outliers }
    }

    /// The values the site quantizer decodes: what an exact page stores.
    fn values(&self) -> Vec<f32> {
        let mut v: Vec<f32> = self.codes.iter().map(|&c| f32::from(c) * self.step).collect();
        for &(j, value) in &self.outliers {
            v[j] = value;
        }
        v
    }
}

/// The site page walk's score for one (query row, cached row): the code
/// sum, the block's step, then the outlier terms, in `f64`, rounded once.
fn walk_score(q: &[f32], k: &SiteRow) -> f32 {
    let mut sum = [0.0f64];
    ops::dot_codes_tile(&k.codes, WIDTH, [(q, &mut sum[..])], ExactInF32::check([q]));
    let mut acc = f64::from(k.step) * sum[0];
    for &(j, value) in &k.outliers {
        acc += f64::from(q[j]) * f64::from(value);
    }
    acc as f32
}

/// The previous schedule: sixteen `f32` lanes over the codes, summed in
/// lane order, then the step and the outliers as the walk does.
fn f32_lanes_score(q: &[f32], k: &SiteRow) -> f32 {
    let mut lanes = [-0.0f32; 16];
    for (i, (&x, &c)) in q.iter().zip(&k.codes).enumerate() {
        lanes[i % 16] += x * f32::from(c);
    }
    let sum = lanes.iter().fold(-0.0f32, |s, &l| s + l);
    let mut acc = f64::from(k.step) * f64::from(sum);
    for &(j, value) in &k.outliers {
        acc += f64::from(q[j]) * f64::from(value);
    }
    acc as f32
}

/// For each spread `0..=max`: whether the site walk and the `f32` lanes
/// matched `ops::dot` on every drawn row, and whether `ExactInF32` let every
/// query whose `f32` lanes missed through.
fn sweep(max: i32, outliers_on: impl Fn(i32) -> (i32, i32)) -> Vec<(bool, bool, bool)> {
    let mut rng = Stream(0x5eed);
    (0..=max)
        .map(|spread| {
            let (q_spread, k_spread) = outliers_on(spread);
            let (mut walk_ok, mut lanes_ok, mut guard_ok) = (true, true, true);
            for _ in 0..ROWS {
                let q = SiteRow::draw(&mut rng, 2f32.powi(-6), q_spread).values();
                let k = SiteRow::draw(&mut rng, 2f32.powi(-5), k_spread);
                let want = ops::dot(&q, &k.values()).to_bits();
                walk_ok &= walk_score(&q, &k).to_bits() == want;
                let lanes_match = f32_lanes_score(&q, &k).to_bits() == want;
                lanes_ok &= lanes_match;
                guard_ok &= lanes_match || !passes_guard(&q);
            }
            (walk_ok, lanes_ok, guard_ok)
        })
        .collect()
}

/// Whether `ExactInF32` sends `q` to the walk's `f32` lanes.
fn passes_guard(q: &[f32]) -> bool {
    ExactInF32::check([q]) == ExactInF32::check(std::iter::empty())
}

/// The first spread at which `pick` is false, if any.
fn first_miss(
    results: &[(bool, bool, bool)],
    pick: impl Fn(&(bool, bool, bool)) -> bool,
) -> Option<i32> {
    results.iter().position(|r| !pick(r)).map(|i| i as i32)
}

#[test]
fn site_walk_scores_are_bitwise_dot_through_every_query_outlier_spread() {
    let results = sweep(40, |spread| (spread, 0));
    // The walk's `f64` partial sums hold every spread up to 2^40.
    assert_eq!(first_miss(&results, |r| r.0), None, "site walk vs ops::dot");
    // Sixteen `f32` lanes break once a query outlier 2^11 above its block
    // pushes a lane sum past 24 bits.
    assert_eq!(first_miss(&results, |r| r.1), Some(11), "f32 lanes vs ops::dot");
    // The guard never lets such a query onto the walk's `f32` lanes.
    assert_eq!(first_miss(&results, |r| r.2), None, "ExactInF32 let a missing query through");
}

#[test]
fn site_walk_scores_are_bitwise_dot_through_every_key_outlier_spread() {
    // Key outliers stay on the `f64` lane in either schedule.
    let results = sweep(40, |spread| (0, spread));
    assert_eq!(first_miss(&results, |r| r.0), None, "site walk vs ops::dot");
    assert_eq!(first_miss(&results, |r| r.1), None, "f32 lanes vs ops::dot");
}

#[test]
fn site_walk_scores_are_bitwise_dot_with_outliers_on_both_sides() {
    // A q·k outlier product 2^(2·spread) above the code terms: the walk adds
    // it after the lanes, `ops::dot` inside one, and both partial sums still
    // hold it exactly on every drawn row.
    let results = sweep(40, |spread| (spread, spread));
    assert_eq!(first_miss(&results, |r| r.0), None, "site walk vs ops::dot");
}

#[test]
fn exact_in_f32_refuses_a_query_before_its_f32_lanes_can_round() {
    // Seven-bit queries at one step pass up to an outlier 2^7 above the
    // block; from 2^8 they take the `f64` lanes, three doublings before
    // the sixteen `f32` lanes first miss (2^11, above).
    let mut rng = Stream(1);
    for spread in 0..=20 {
        let passes: Vec<bool> = (0..ROWS)
            .map(|_| passes_guard(&SiteRow::draw(&mut rng, 2f32.powi(-6), spread).values()))
            .collect();
        let want = spread <= 7;
        assert!(passes.iter().all(|&p| p == want), "spread {spread}: {passes:?}");
    }
}
