//! Runtime-dispatch oracles for the vectorized core kernels: every wide
//! backend the host supports must agree with the forced-scalar twin —
//! **bitwise** for the FFT paths (their lane chains replicate the scalar
//! operation chains exactly; DESIGN.md §11) and at 1e-9 relative for the
//! reassociating dot helper. Lengths cover lane remainders (n not a
//! multiple of the lane width), `m == n`, and non-power-of-two n.

use tsad_core::fft::{
    fft_in_place, irfft, rfft, sliding_dot_product, sliding_dot_product_fft, Complex,
};
use tsad_core::simd::{self, Backend, C64Lanes, F64Lanes, Isa, Kernel};

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 4.0 - 2.0
        })
        .collect()
}

/// Wide backends available on this host (beyond scalar).
fn wide_backends() -> Vec<Backend> {
    [Backend::Avx2, Backend::Sse2, Backend::Neon]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

#[test]
fn at_least_one_wide_backend_is_exercised_on_x86_and_aarch64() {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    assert!(
        !wide_backends().is_empty(),
        "baseline SIMD (SSE2/NEON) must always be available here"
    );
}

#[test]
fn complex_fft_is_bitwise_identical_across_backends() {
    // Sizes hit the len==2-only transform, the remainder-heavy small sizes,
    // and a size large enough to run many vector iterations per stage.
    for n in [2usize, 4, 8, 16, 64, 256, 1024] {
        let input: Vec<Complex> = series(2 * n, 7)
            .chunks_exact(2)
            .map(|c| Complex::new(c[0], c[1]))
            .collect();
        for inverse in [false, true] {
            let reference = simd::with_backend(Backend::Scalar, || {
                let mut d = input.clone();
                fft_in_place(&mut d, inverse).unwrap();
                d
            });
            for be in wide_backends() {
                let wide = simd::with_backend(be, || {
                    let mut d = input.clone();
                    fft_in_place(&mut d, inverse).unwrap();
                    d
                });
                for (i, (a, b)) in wide.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.re.to_bits(),
                        b.re.to_bits(),
                        "{} n={n} inverse={inverse} slot {i} re",
                        be.name()
                    );
                    assert_eq!(
                        a.im.to_bits(),
                        b.im.to_bits(),
                        "{} n={n} inverse={inverse} slot {i} im",
                        be.name()
                    );
                }
            }
        }
    }
}

#[test]
fn rfft_and_roundtrip_are_bitwise_identical_across_backends() {
    for n in [2usize, 4, 8, 32, 128, 512] {
        let x = series(n, 11);
        let (ref_spec, ref_back) = simd::with_backend(Backend::Scalar, || {
            let mut spec = Vec::new();
            rfft(&x, &mut spec).unwrap();
            let mut kept = spec.clone();
            let mut back = Vec::new();
            irfft(&mut kept, &mut back).unwrap();
            (spec, back)
        });
        for be in wide_backends() {
            let (spec, back) = simd::with_backend(be, || {
                let mut spec = Vec::new();
                rfft(&x, &mut spec).unwrap();
                let mut kept = spec.clone();
                let mut back = Vec::new();
                irfft(&mut kept, &mut back).unwrap();
                (spec, back)
            });
            for (i, (a, b)) in spec.iter().zip(&ref_spec).enumerate() {
                assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "{} n={n} spec {i}",
                    be.name()
                );
                assert_eq!(
                    a.im.to_bits(),
                    b.im.to_bits(),
                    "{} n={n} spec {i}",
                    be.name()
                );
            }
            for (i, (a, b)) in back.iter().zip(&ref_back).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{} n={n} sample {i}", be.name());
            }
        }
    }
}

#[test]
fn sliding_dot_product_is_bitwise_identical_across_backends() {
    // (n, m) shapes: lane remainders in the profile length, m == n, non-pow2
    // n (every n here is non-pow2 after padding considerations), and both
    // dispatch sides of the naive/FFT crossover.
    let shapes = [
        (777usize, 129usize),
        (777, 777),
        (1000, 300),
        (515, 257),
        (130, 130),
        (600, 64),     // naive side: must also be invariant (no SIMD there)
        (20_000, 200), // long enough to run the overlap-save block path
    ];
    for (n, m) in shapes {
        let x = series(n, 23);
        let q: Vec<f64> = x[n - m..].iter().map(|&v| v * 0.75 - 0.1).collect();
        let reference =
            simd::with_backend(Backend::Scalar, || sliding_dot_product(&q, &x).unwrap());
        for be in wide_backends() {
            let wide = simd::with_backend(be, || sliding_dot_product(&q, &x).unwrap());
            assert_eq!(wide.len(), reference.len());
            for (i, (a, b)) in wide.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} n={n} m={m} i={i}: {a} vs {b}",
                    be.name()
                );
            }
        }
    }
}

#[test]
fn forced_scalar_reports_scalar_dispatch() {
    simd::with_backend(Backend::Scalar, || {
        assert_eq!(simd::dispatch_name(), "scalar");
        assert_eq!(simd::lane_width(), 1);
        // The kernels above resolve through the same `current()`; running
        // one here pins that the override actually reaches a kernel call.
        let x = series(300, 3);
        let q = x[..150].to_vec();
        sliding_dot_product_fft(&q, &x).unwrap();
        assert_eq!(simd::current(), Backend::Scalar);
    });
}

/// Reports the lane counts of the [`Isa`] it runs under.
struct Lanes;

impl Kernel for Lanes {
    type Output = (usize, usize);
    fn run<I: Isa>(self) -> (usize, usize) {
        (I::F::LANES, I::C::COMPLEX)
    }
}

#[test]
fn dispatch_runs_every_backend_with_its_own_lanes() {
    let backends = [Backend::Avx2, Backend::Sse2, Backend::Neon, Backend::Scalar];
    for backend in backends.into_iter().filter(|b| b.is_supported()) {
        let (lanes, complex) = simd::dispatch(backend, Lanes);
        assert_eq!(lanes, backend.lane_width(), "{}", backend.name());
        // a complex vector is as wide as a real one, and never empty
        assert_eq!(complex, (lanes / 2).max(1), "{}", backend.name());
    }
}
