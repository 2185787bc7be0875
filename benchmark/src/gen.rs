//! Benchmark-owned input generation: a SplitMix64 generator keyed by
//! `--seed`, and the request streams of the four workloads.
//!
//! The engine sees only the prompts, token limits and due times made
//! here. Nothing in this file calls into the measured crates, so a change
//! to them (to `opal-scenario`'s trace generator, say) cannot move the
//! workload.

/// Vocabulary of the proxy model every workload serves.
pub const VOCAB: u32 = 192;

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word, a Weyl
/// increment and a finalising mix.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `label` under `seed`, so that adding a
    /// draw to one stream (arrival times) never moves another (tokens).
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut s = SplitMix64(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(s.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias of at most `n / 2^64`
    /// is far below anything the workloads can see).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.below(u64::from(VOCAB)) as u32).collect()
    }
}

/// What kind of prompt a request carries; the open loop reports time to
/// first token per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Nothing shared with any other request.
    Unique,
    /// Starts with one of the fixed shared prefixes.
    Warm,
    /// Long and unshared, in a workload where others are `Warm`.
    Cold,
}

/// One generated request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Req {
    pub prompt: Vec<u32>,
    pub limit: usize,
    pub class: Class,
}

/// Which request stream to make.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Unshared prompts of 8–16 tokens, 128 new tokens.
    ShortDecode,
    /// 75 % one of 4 fixed 192-token prefixes plus a unique 32–96-token
    /// tail, 25 % 224–288 unique tokens; 8 new tokens.
    SharedPrefill,
    /// Unique 512-token prompts, 512 new tokens.
    LongContext,
    /// A random 4–8-token motif repeated 4–8 times, 192 new tokens.
    Repetitive,
}

const LABEL_REQUESTS: u64 = 1;
const LABEL_PREFIXES: u64 = 2;
const LABEL_ARRIVALS: u64 = 3;

/// The endless, seed-determined request stream of one workload. Request
/// `i` is the same whatever was asked for before it.
#[derive(Clone, Debug)]
pub struct Stream {
    shape: Shape,
    rng: SplitMix64,
    prefixes: Vec<Vec<u32>>,
    /// Which of the current four `SharedPrefill` requests is the cold one.
    cold_slot: usize,
    made: Vec<Req>,
}

impl Stream {
    pub fn new(shape: Shape, seed: u64) -> Self {
        let mut p = SplitMix64::stream(seed, LABEL_PREFIXES);
        let prefixes = match shape {
            Shape::SharedPrefill => (0..4).map(|_| p.tokens(192)).collect(),
            _ => Vec::new(),
        };
        Stream {
            shape,
            rng: SplitMix64::stream(seed, LABEL_REQUESTS),
            prefixes,
            cold_slot: 0,
            made: Vec::new(),
        }
    }

    /// Request `i`, generating up to it on first use.
    pub fn get(&mut self, i: usize) -> &Req {
        while self.made.len() <= i {
            let req = self.make(self.made.len());
            self.made.push(req);
        }
        &self.made[i]
    }

    fn make(&mut self, i: usize) -> Req {
        let r = &mut self.rng;
        match self.shape {
            Shape::ShortDecode => {
                let n = r.range(8, 16);
                Req { prompt: r.tokens(n), limit: 128, class: Class::Unique }
            }
            Shape::SharedPrefill => {
                // One cold request in every four, at a drawn place among
                // them, so that the warm share is three quarters over any
                // window and not only in expectation.
                if i.is_multiple_of(4) {
                    self.cold_slot = r.below(4) as usize;
                }
                if i % 4 == self.cold_slot {
                    let n = r.range(224, 288);
                    Req { prompt: r.tokens(n), limit: 8, class: Class::Cold }
                } else {
                    let mut prompt = self.prefixes[r.below(4) as usize].clone();
                    let n = r.range(32, 96);
                    prompt.extend(r.tokens(n));
                    Req { prompt, limit: 8, class: Class::Warm }
                }
            }
            Shape::LongContext => Req { prompt: r.tokens(512), limit: 512, class: Class::Unique },
            Shape::Repetitive => {
                let motif_len = r.range(4, 8);
                let motif = r.tokens(motif_len);
                let reps = r.range(4, 8);
                Req { prompt: motif.repeat(reps), limit: 192, class: Class::Unique }
            }
        }
    }
}

/// Due times, in seconds from the start of the window, of an open loop
/// sending `rate` requests per second for `seconds`: one request in every
/// slot of `1 / rate` seconds, at a uniformly drawn moment of its slot.
///
/// Two requests can fall due almost together (the end of one slot, the
/// start of the next) or half a second apart, so a queue does form; but a
/// window of this length holds too few requests for a Poisson process to
/// average out, and ten seeds of one gave ten different amounts of
/// clumping, and median first-token times from 72 to 94 ms.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut r = SplitMix64::stream(seed, LABEL_ARRIVALS);
    let n = (rate * seconds).round() as usize;
    (0..n).map(|i| (i as f64 + r.unit()) / rate).filter(|&d| d < seconds).collect()
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn tokens(&mut self, tokens: &[u32]) {
        self.word(tokens.len() as u64);
        for &t in tokens {
            self.word(u64::from(t));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a workload's inputs: its first `n` requests and its due
/// times. Printed with every run, so that two runs can be seen to have
/// measured the same inputs.
pub fn fingerprint(stream: &mut Stream, n: usize, due: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for i in 0..n {
        let req = stream.get(i);
        h.tokens(&req.prompt);
        h.word(req.limit as u64);
    }
    h.word(due.len() as u64);
    for &d in due {
        h.word(d.to_bits());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [Shape; 4] =
        [Shape::ShortDecode, Shape::SharedPrefill, Shape::LongContext, Shape::Repetitive];

    #[test]
    fn splitmix64_matches_the_published_vectors() {
        // First outputs for seed 1234567 from the reference implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for shape in SHAPES {
            let print = |seed| {
                let due = arrivals(seed, 4.0, 10.0);
                fingerprint(&mut Stream::new(shape, seed), 32, &due)
            };
            assert_eq!(print(1), print(1), "{shape:?}");
            assert_ne!(print(1), print(2), "{shape:?}");
        }
    }

    #[test]
    fn a_request_does_not_depend_on_what_was_asked_first() {
        for shape in SHAPES {
            let mut a = Stream::new(shape, 7);
            let mut b = Stream::new(shape, 7);
            let late = a.get(9).clone();
            for i in 0..=9 {
                b.get(i);
            }
            assert_eq!(&late, b.get(9));
        }
    }

    #[test]
    fn shapes_keep_their_stated_sizes() {
        let mut s = Stream::new(Shape::ShortDecode, 3);
        let mut p = Stream::new(Shape::SharedPrefill, 3);
        let mut l = Stream::new(Shape::LongContext, 3);
        let mut m = Stream::new(Shape::Repetitive, 3);
        let mut warm = 0;
        for i in 0..64 {
            let r = s.get(i);
            assert!((8..=16).contains(&r.prompt.len()) && r.limit == 128);
            let r = p.get(i);
            match r.class {
                Class::Warm => {
                    warm += 1;
                    assert!((224..=288).contains(&r.prompt.len()));
                }
                Class::Cold => assert!((224..=288).contains(&r.prompt.len())),
                Class::Unique => panic!("the shared workload has no unique class"),
            }
            assert_eq!(r.limit, 8);
            let r = l.get(i);
            assert!(r.prompt.len() == 512 && r.limit == 512);
            let r = m.get(i);
            assert!((16..=64).contains(&r.prompt.len()) && r.limit == 192);
            assert!(r.prompt.iter().all(|&t| t < VOCAB));
        }
        assert_eq!(warm, 48, "three of every four requests are warm");
    }

    #[test]
    fn arrivals_are_one_per_slot_sorted_and_inside_the_window() {
        let due = arrivals(5, 4.0, 12.5);
        assert_eq!(due.len(), 50);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&d| (0.0..12.5).contains(&d)));
        for (i, &d) in due.iter().enumerate() {
            assert_eq!((d * 4.0).floor() as usize, i, "request {i} is due in slot {i}");
        }
        assert_ne!(arrivals(5, 4.0, 12.5), arrivals(6, 4.0, 12.5));
    }
}
