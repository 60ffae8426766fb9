//! Total correctness with ranking assertions (paper Def. 4.3, rule WhileT).
//!
//! The paper's prototype "only supports partial correctness; verification
//! of total correctness is left as future work" (Sec. 6). This
//! reproduction implements it: a repeat-until-success loop
//! `q := 0; q *= H; while M01[q] do q *= H end` terminates almost surely,
//! and the geometric ranking certificate `R_0 = I, R_1 = |1⟩⟨1|, γ = ½`
//! (the finite form of the Eq. 18 completeness witness) discharges
//! `⊨tot {I} RUS {P0}`.
//!
//! Run with: `cargo run --example repeat_until_success`

use nqpv::core::casestudies::repeat_until_success;
use nqpv::core::{Mode, RankingCertificate, VcOptions};
use nqpv::quantum::ket;

fn main() {
    // ----- The certified proof. ------------------------------------------
    let study = repeat_until_success();
    let outcome = study.verify().expect("verification runs");
    println!("{}", study.outline(&outcome));
    println!(
        "⊨tot {{I}} RUS {{P0}} : {}",
        if outcome.status.verified() {
            "verified (a.s. termination in |0⟩)"
        } else {
            "REJECTED"
        }
    );
    assert!(outcome.status.verified());

    // ----- Ranking sanity: the Eq.-18 sequence R_i = 2^{1-i}|1⟩⟨1|. -------
    println!("\nranking: R_0 = I, R_1 = |1⟩⟨1|, tail R_(1+j) = 2^-j |1⟩⟨1|");
    println!("  P¹∘H†(R_1) = ½|1⟩⟨1| = γ·R_1 with γ = ½  (the contraction step)");

    // ----- Failure injection: wrong certificates must be rejected. --------
    let mut too_fast = repeat_until_success();
    too_fast.rankings.insert(
        0,
        RankingCertificate::geometric(2, ket("1").projector(), 0.25), // γ < ½: false
    );
    match too_fast.verify() {
        Err(e) => println!("\nclaiming γ = ¼ (faster than reality):\n  {e}"),
        Ok(_) => panic!("over-optimistic ranking must be rejected"),
    }

    let mut missing = repeat_until_success();
    missing.rankings.clear();
    match missing.verify_with(VcOptions {
        mode: Mode::Total,
        ..VcOptions::default()
    }) {
        Err(e) => println!("\nwithout any certificate:\n  {e}"),
        Ok(_) => panic!("total correctness without ranking must be rejected"),
    }

    // ----- Partial correctness never needs the certificate. ---------------
    let partial = repeat_until_success();
    let outcome = partial
        .verify_with(VcOptions {
            mode: Mode::Partial,
            ..VcOptions::default()
        })
        .expect("partial verification runs");
    println!(
        "\n⊨par {{I}} RUS {{P0}} (no ranking needed): {}",
        if outcome.status.verified() {
            "verified"
        } else {
            "REJECTED"
        }
    );
    assert!(outcome.status.verified());
}
