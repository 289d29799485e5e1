//! Offline stand-in for `rand_distr` 0.5: `Weibull`, `LogNormal` and
//! `Zipf` over `f64`, the three distributions the corpus generator
//! samples.

pub use rand::distr::Distribution;
use rand::Rng;

/// Invalid distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("invalid distribution parameter")
    }
}

impl std::error::Error for Error {}

/// Uniform draw from `(0, 1]`, so `ln` is always finite.
fn open_closed01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Weibull distribution with the given scale and shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    scale: f64,
    inv_shape: f64,
}

impl Weibull {
    pub fn new(scale: f64, shape: f64) -> Result<Self, Error> {
        if scale > 0.0 && shape > 0.0 {
            Ok(Self {
                scale,
                inv_shape: 1.0 / shape,
            })
        } else {
            Err(Error)
        }
    }
}

impl Distribution<f64> for Weibull {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.scale * (-open_closed01(rng).ln()).powf(self.inv_shape)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Result<Self, Error> {
        if sigma.is_finite() && sigma >= 0.0 {
            Ok(Self { mu, sigma })
        } else {
            Err(Error)
        }
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller; the second variate is discarded to stay stateless.
        let r = (-2.0 * open_closed01(rng).ln()).sqrt();
        let theta = std::f64::consts::TAU * open_closed01(rng);
        (self.mu + self.sigma * r * theta.cos()).exp()
    }
}

/// Zipf distribution over the ranks `1..=n` with exponent `s`, sampled
/// by inverting a precomputed cumulative table.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: f64, s: f64) -> Result<Self, Error> {
        if !(n >= 1.0) || !(s >= 0.0) || !n.is_finite() {
            return Err(Error);
        }
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n as u64 {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Ok(Self { cdf })
    }
}

impl Distribution<f64> for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = open_closed01(rng);
        let idx = self.cdf.partition_point(|&c| c < u);
        (idx.min(self.cdf.len() - 1) + 1) as f64
    }
}
