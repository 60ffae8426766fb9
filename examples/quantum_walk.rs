//! The nondeterministic quantum walk of paper Sec. 5.3.
//!
//! A walker on a 4-cycle applies `W1;W2` or `W2;W1` per step — the order is
//! demonic — with an absorbing boundary at `|10⟩`. The paper proves the
//! striking fact that the walk *never* terminates **under any scheduler**:
//! `⊨par {I} QWalk {0}`. This example verifies that claim with the loop
//! invariant `N = [|00⟩] + [(|01⟩+|11⟩)/√2]` and then hammers the loop with
//! pseudo-random schedulers to watch the absorbed mass stay at zero.
//!
//! Run with: `cargo run --example quantum_walk`

use nqpv::core::casestudies;
use nqpv::lang::parse_stmt;
use nqpv::quantum::{ket, OperatorLibrary, Register};
use nqpv::semantics::{exec_scheduled, ExecOptions, FromBits};

fn main() {
    // ----- The Hoare-logic proof (invariant-based, covers ALL schedulers).
    let study = casestudies::qwalk();
    let outcome = study.verify().expect("verification runs");
    println!("{}", study.outline(&outcome));
    println!(
        "⊨par {{I}} QWalk {{0}} : {}",
        if outcome.status.verified() {
            "verified — the walk never terminates"
        } else {
            "REJECTED"
        }
    );
    assert!(outcome.status.verified());

    // ----- Empirical scheduler sampling (finitely many, for intuition). --
    let lib = OperatorLibrary::with_builtins();
    let reg = Register::new(&["q1", "q2"]).expect("register");
    let prog = parse_stmt(
        "[q1 q2] := 0; while MQWalk[q1 q2] do \
         ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end",
    )
    .expect("program parses");
    let opts = ExecOptions {
        fuel: 64,
        ..ExecOptions::default()
    };
    println!("\nsampling 20 pseudo-random schedulers, 64 steps each:");
    let mut worst: f64 = 0.0;
    for seed in 1..=20u64 {
        let mut sched = FromBits::pseudo_random(seed, 128);
        let out = exec_scheduled(&prog, &ket("00").projector(), &lib, &reg, &mut sched, opts)
            .expect("execution runs");
        worst = worst.max(out.trace_re());
    }
    println!("  max absorbed probability over all sampled schedulers: {worst:.3e}");
    assert!(worst < 1e-9);

    // ----- The paper's tool demo (Sec. 6.2): a wrong invariant fails. ----
    let mut broken = casestudies::qwalk();
    broken.term = nqpv::lang::parse_proof_body(
        &["q1", "q2"],
        "{ I[q1] }; [q1 q2] := 0; { inv : P0[q1] }; \
         while MQWalk[q1 q2] do \
           ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) \
         end; { Zero[q1] }",
    )
    .expect("program parses");
    match broken.verify() {
        Err(e) => println!("\nwith invariant P0[q1] the tool answers:\n{e}"),
        Ok(_) => panic!("invalid invariant must be rejected"),
    }
}
