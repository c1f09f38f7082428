//! Bitwise checks of the training kernels under both kernel backends.
//!
//! The weight-gradient kernel `Mat::t_matmul_acc` promises the same bits
//! under every backend: each output element is the zero-skipping,
//! k-ascending chain of multiplies then adds, summed from zero and added
//! into the accumulator once. These tests hold it to that against a local
//! copy of the original `t_matmul` loop, under the scalar backend and
//! under the native one, and check that the two backends agree.

use desh_nn::simd::{backend, set_backend, Backend};
use desh_nn::{Dense, Mat};
use desh_util::Xoshiro256pp;
use std::sync::Mutex;

/// Serialises the tests that switch the process-wide kernel backend.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` under the scalar backend, then under the native one (which is
/// scalar too when `DESH_SIMD=off`), restoring the native backend after.
fn on_each_backend(mut f: impl FnMut(Backend)) {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let native = backend();
    for b in [Backend::Scalar, native] {
        set_backend(b);
        f(b);
    }
    set_backend(native);
}

/// `Aᵀ @ B` by the original zero-skipping k-ascending loop.
fn reference_t_matmul(a: &Mat, b: &Mat) -> Mat {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Mat::zeros(m, n);
    for kk in 0..k {
        let a_row = &a.data()[kk * m..(kk + 1) * m];
        let b_row = &b.data()[kk * n..(kk + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out.data_mut()[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

fn bits(m: &Mat) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// Random values with exact zeros, negative zeros and tiny values
/// sprinkled in.
fn awkward_mat(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Mat {
    Mat::from_fn(rows, cols, |_, _| match rng.below(10) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0e-30,
        _ => rng.f32() * 4.0 - 2.0,
    })
}

/// `[k, m]` activations with one-hot rows, an all-zero column and a
/// column of negative zeros, like the phase-2 inputs.
fn one_hot_mat(k: usize, m: usize) -> Mat {
    Mat::from_fn(k, m, |r, c| match c {
        0 => -0.0,
        1 => 0.0,
        c if c == 2 + (r * 5) % (m - 2) => 1.0,
        _ => 0.0,
    })
}

/// Every shape the trainers hit, plus width tails around the 16-wide
/// strip (n = 50, 51, 15, 17) and degenerate sizes.
const SHAPES: &[(usize, usize, usize)] = &[
    (4, 64, 256),
    (8, 48, 192),
    (4, 52, 256),
    (8, 16, 192),
    (8, 48, 30),
    (5, 7, 50),
    (3, 9, 51),
    (6, 4, 15),
    (2, 3, 17),
    (1, 1, 1),
    (0, 4, 8),
];

#[test]
fn t_matmul_acc_is_bitwise_add_of_reference_on_every_backend() {
    let mut per_backend: Vec<Vec<Vec<u32>>> = Vec::new();
    on_each_backend(|b| {
        let mut rng = Xoshiro256pp::seed_from_u64(2018);
        let mut results = Vec::new();
        for &(k, m, n) in SHAPES {
            let inputs = [
                awkward_mat(k, m, &mut rng),
                if k > 0 && m > 2 {
                    one_hot_mat(k, m)
                } else {
                    Mat::zeros(k, m)
                },
            ];
            for a in &inputs {
                let bm = awkward_mat(k, n, &mut rng);
                let init = awkward_mat(m, n, &mut rng);
                let mut want = init.clone();
                want.add_assign(&reference_t_matmul(a, &bm));
                let mut got = init.clone();
                a.t_matmul_acc(&bm, &mut got);
                assert_eq!(bits(&got), bits(&want), "{k}x{m}x{n} on {}", b.name());
                assert_eq!(
                    bits(&a.t_matmul(&bm)),
                    bits(&reference_t_matmul(a, &bm)),
                    "t_matmul {k}x{m}x{n} on {}",
                    b.name()
                );
                results.push(bits(&got));
            }
        }
        per_backend.push(results);
    });
    assert_eq!(
        per_backend[0], per_backend[1],
        "scalar and native t_matmul_acc disagree"
    );
}

#[test]
fn t_matmul_acc_turns_negative_zero_accumulators_like_add_assign() {
    // An all-zero column adds a +0.0 strip: -0.0 accumulators become
    // +0.0 exactly as `out.add_assign(&zeros)` makes them.
    on_each_backend(|b| {
        let a = Mat::zeros(3, 2);
        let bm = Mat::full(3, 40, 2.0);
        let mut got = Mat::full(2, 40, -0.0);
        a.t_matmul_acc(&bm, &mut got);
        let mut want = Mat::full(2, 40, -0.0);
        want.add_assign(&Mat::zeros(2, 40));
        assert_eq!(bits(&got), bits(&want), "on {}", b.name());
        assert!(
            got.data().iter().all(|x| x.to_bits() == 0),
            "on {}",
            b.name()
        );
    });
}

#[test]
fn dense_backward_is_bitwise_reference_on_every_backend() {
    on_each_backend(|b| {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let d = Dense::new(48, 30, "head", &mut rng);
        let x = awkward_mat(8, 48, &mut rng);
        let dy = awkward_mat(8, 30, &mut rng);
        let (_, cache) = d.forward(&x);
        let mut dw = awkward_mat(48, 30, &mut rng);
        let mut db = awkward_mat(1, 30, &mut rng);
        let (mut want_dw, mut want_db) = (dw.clone(), db.clone());
        let dx = d.backward_into(&cache, &dy, &mut dw, &mut db);
        want_dw.add_assign(&reference_t_matmul(&x, &dy));
        want_db.add_assign(&dy.col_sums());
        assert_eq!(bits(&dw), bits(&want_dw), "dw on {}", b.name());
        assert_eq!(bits(&db), bits(&want_db), "db on {}", b.name());
        assert_eq!(bits(&dx), bits(&dy.matmul_t(&d.w.w)), "dx on {}", b.name());
    });
}
