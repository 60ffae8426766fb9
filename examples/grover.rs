//! Grover verification scaling — the paper's Sec. 6.5 performance test.
//!
//! "It takes … 90 seconds for the 13-qubit Grover algorithm in NQPV"
//! (with 32 GB of memory, Artifact Appendix C). This example verifies
//! `⊨tot {(p−ε)·I} Grover_n {P_marked}` for growing `n`, where `p` is the
//! exact success probability `sin²((2k+1)·arcsin(2^{-n/2}))`; the computed
//! weakest precondition is exactly `p·I`, so the verifier simultaneously
//! *derives* the success probability of Grover search.
//!
//! Run with: `cargo run --release --example grover [max_qubits]`

use nqpv::core::casestudies::{grover, grover_parameters};
use std::time::Instant;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    println!("n qubits | iterations | success prob | verify time | status");
    println!("---------+------------+--------------+-------------+--------");
    for n in 1..=max_n {
        let params = grover_parameters(n);
        let study = grover(n);
        let t0 = Instant::now();
        let outcome = study.verify().expect("verification runs");
        let dt = t0.elapsed();
        println!(
            "{:>8} | {:>10} | {:>12.6} | {:>9.3} s | {}",
            n,
            params.iterations,
            params.success_probability,
            dt.as_secs_f64(),
            if outcome.status.verified() {
                "verified"
            } else {
                "REJECTED"
            }
        );
        assert!(outcome.status.verified());
    }
    println!();
    println!("the wall-clock column reproduces the shape of the paper's Sec. 6.5");
    println!("observation: cost grows exponentially with the qubit count. The");
    println!("predicates stay low-rank factored (2^n x r), but every oracle and");
    println!("diffusion step is a dense 2^n x 2^n unitary (the Python tool needed");
    println!("90 s and 32 GB at n = 13).");
}
