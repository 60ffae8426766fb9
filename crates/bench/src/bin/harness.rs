//! `harness` — regenerates every experiment of the paper's evaluation in
//! one run and prints their tables as Markdown.
//!
//! Usage: `cargo run --release -p nqpv-bench --bin harness [max_grover_qubits]`

use nqpv_bench::{holding_instance, violated_instance};
use nqpv_core::casestudies::{
    deutsch, err_corr, grover, grover_parameters, phase_flip_corr, qwalk, repeat_until_success,
};
use nqpv_core::derivations::{err_corr_derivation, qwalk_derivation};
use nqpv_core::refinement::refines_denotationally;
use nqpv_lang::parse_stmt;
use nqpv_linalg::{conjugate_gate, embed, CMat};
use nqpv_quantum::{gates, ket, OperatorLibrary, Register};
use nqpv_semantics::models::{example_3_3, example_3_4};
use nqpv_semantics::{exec_scheduled, ExecOptions, FromBits};
use nqpv_solver::{assertion_le, max_min_expectation, LownerOptions, PrimalOptions};
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn main() {
    let max_grover: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    println!("# NQPV experiment harness\n");

    // ---------------------------------------------------------------- E1-E3
    println!("## E1–E3: case-study verification (paper Sec. 5)\n");
    println!("| id | study | mode | verified | wall time |");
    println!("|----|-------|------|----------|-----------|");
    for (id, study) in [
        ("E1", err_corr(0.6, 0.8)),
        ("E2", deutsch()),
        ("E3", qwalk()),
        ("E11", repeat_until_success()),
        ("E16", phase_flip_corr(0.6, 0.8)),
    ] {
        let (outcome, dt) = timed(|| study.verify().expect("verification runs"));
        println!(
            "| {id} | {} | {:?} | {} | {:.3} ms |",
            study.name,
            study.mode,
            outcome.status.verified(),
            dt * 1e3
        );
    }

    // ------------------------------------------------------------------- E4
    println!("\n## E4: tool behaviours (paper Sec. 6.2)\n");
    let study = qwalk();
    let outcome = study.verify().expect("verification runs");
    let has_vars = outcome.outline.contains("VAR0") && outcome.outline.contains("VAR1");
    println!("- proof outline contains generated VAR predicates: {has_vars}");
    let mut broken = qwalk();
    broken.term = nqpv_lang::parse_proof_body(
        &["q1", "q2"],
        "{ I[q1] }; [q1 q2] := 0; { inv : P0[q1] }; \
         while MQWalk[q1 q2] do \
         ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end; \
         { Zero[q1] }",
    )
    .expect("parses");
    let rejected = broken.verify().is_err();
    println!("- invalid invariant P0[q1] rejected with error: {rejected}");

    // ------------------------------------------------------------------- E5
    println!("\n## E5: ⊑_inf decision procedure scaling (paper Sec. 6.3)\n");
    println!("| dim | |Θ| | verdict | time (holds) | time (violated) |");
    println!("|-----|-----|---------|--------------|-----------------|");
    for dim in [2usize, 4, 8, 16, 32, 64] {
        for k in [1usize, 2, 4] {
            let (t, p) = holding_instance(dim, k, 1000 + dim as u64 + k as u64);
            let (v1, dt1) = timed(|| assertion_le(&t, &p, LownerOptions::default()).unwrap());
            let (t2, p2) = violated_instance(dim, k, 2000 + dim as u64 + k as u64);
            let (v2, dt2) = timed(|| assertion_le(&t2, &p2, LownerOptions::default()).unwrap());
            println!(
                "| {dim} | {k} | {}/{} | {:.3} ms | {:.3} ms |",
                v1.holds(),
                !v2.holds(),
                dt1 * 1e3,
                dt2 * 1e3
            );
        }
    }

    // ------------------------------------------------------------------- E6
    println!("\n## E6: Grover verification scaling (paper Sec. 6.5 / Appendix C)\n");
    println!("The `factored` column keeps the rank-1 target projector in low-rank");
    println!("factored form across the whole wp pipeline; `dense` is the ablation");
    println!("(`VcOptions::factor_assertions = false`, the pre-PR-3 path; skipped");
    println!("above 8 qubits where it takes minutes).\n");
    println!("| qubits | iterations | success prob | post rank | factored | dense | speedup |");
    println!("|--------|------------|--------------|-----------|----------|-------|---------|");
    for n in 2..=max_grover {
        let params = grover_parameters(n);
        let study = grover(n);
        // Rank tracking: the resolved postcondition's factor width.
        let reg = Register::new(&study.term.qubits).expect("register");
        let post =
            nqpv_core::Assertion::from_expr(&study.term.post, &study.library, &reg).expect("post");
        let rank = post
            .max_factored_rank()
            .map(|r| r.to_string())
            .unwrap_or_else(|| "dense".into());
        let (outcome, dt) = timed(|| study.verify().expect("verification runs"));
        assert!(outcome.status.verified());
        let (dense_cell, speedup_cell) = if n <= 8 {
            let dense_opts = nqpv_core::VcOptions {
                mode: study.mode,
                factor_assertions: false,
                ..nqpv_core::VcOptions::default()
            };
            let (outcome_d, dtd) = timed(|| study.verify_with(dense_opts).expect("runs"));
            assert!(outcome_d.status.verified());
            (
                format!("{:.3} s", dtd),
                format!("{:.1}x", dtd / dt.max(1e-9)),
            )
        } else {
            ("-".into(), "-".into())
        };
        println!(
            "| {n} | {} | {:.6} | {rank} | {:.3} s | {dense_cell} | {speedup_cell} |",
            params.iterations, params.success_probability, dt
        );
    }
    println!("\n(the Python prototype needed 90 s and 32 GB at 13 qubits; the growth");
    println!("shape — exponential in qubit count — is the reproduced observation;");
    println!("the factored pipeline pushes the laptop-scale frontier to 10 qubits)");

    // --------------------------------------------------------------- E7/E8
    println!("\n## E7/E8: semantic-model separations (paper Sec. 3.3)\n");
    let d33 = example_3_3().expect("computes");
    println!(
        "- Ex. 3.3 outputs for I/2: mixed {} | via ½|0⟩½|1⟩ {} | via ½|+⟩½|−⟩ {}",
        d33.mixed.len(),
        d33.via_computational.len(),
        d33.via_plus_minus.len()
    );
    let d34 = example_3_4().expect("computes");
    println!(
        "- Ex. 3.4 [[T]]=[[T±]]: {} | relational outputs {} vs {} | lifted {} vs {}",
        d34.t_maps_equal,
        d34.relational_t_then_s.len(),
        d34.relational_tpm_then_s.len(),
        d34.lifted_t_then_s.len(),
        d34.lifted_tpm_then_s.len()
    );

    // ------------------------------------------------------------------- E3b
    println!("\n## E3 empirics: QWalk absorbed mass under sampled schedulers\n");
    let lib = OperatorLibrary::with_builtins();
    let reg = Register::new(&["q1", "q2"]).expect("register");
    let prog = parse_stmt(
        "[q1 q2] := 0; while MQWalk[q1 q2] do \
         ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end",
    )
    .expect("parses");
    let mut worst: f64 = 0.0;
    for seed in 1..=50u64 {
        let mut sched = FromBits::pseudo_random(seed, 128);
        let out = exec_scheduled(
            &prog,
            &ket("00").projector(),
            &lib,
            &reg,
            &mut sched,
            ExecOptions {
                fuel: 64,
                ..ExecOptions::default()
            },
        )
        .expect("runs");
        worst = worst.max(out.trace_re());
    }
    println!("- max absorbed probability over 50 schedulers × 64 steps: {worst:.3e}");

    // ------------------------------------------------------------------ E12
    println!("\n## E12: ablations\n");
    // (a) embed-then-multiply vs in-place conjugation.
    println!("| n qubits | embed+mul | in-place conj | speedup |");
    println!("|----------|-----------|---------------|---------|");
    for n in [4usize, 6, 8, 10] {
        let dim = 1usize << n;
        let rho = nqpv_bench::random_density(dim, n as u64);
        let g = gates::cx();
        let (_, t_embed) = timed(|| {
            let big = embed(&g, &[0, 1], n);
            big.conjugate(&rho)
        });
        let (_, t_fast) = timed(|| conjugate_gate(&g, &[0, 1], n, &rho));
        println!(
            "| {n} | {:.3} ms | {:.3} ms | {:.1}x |",
            t_embed * 1e3,
            t_fast * 1e3,
            t_embed / t_fast.max(1e-9)
        );
    }
    // (b) dual certificate vs primal witness search on violated instances.
    println!("\n| dim | full decision | primal-only search |");
    println!("|-----|---------------|--------------------|");
    for dim in [4usize, 16, 64] {
        let (t2, p2) = violated_instance(dim, 3, 31 + dim as u64);
        let (_, dt_full) = timed(|| assertion_le(&t2, &p2, LownerOptions::default()).unwrap());
        let diffs: Vec<CMat> = t2.iter().map(|m| m.sub_mat(&p2[0])).collect();
        let (_, dt_primal) = timed(|| max_min_expectation(&diffs, PrimalOptions::default()));
        println!(
            "| {dim} | {:.3} ms | {:.3} ms |",
            dt_full * 1e3,
            dt_primal * 1e3
        );
    }

    // ---------------------------------------------------------- E13-E15
    println!("\n## E13–E15: extensions (paper Sec. 7 future work)\n");
    // E13: explicit Fig. 3 derivations replayed through the rule checker.
    let lib = OperatorLibrary::with_builtins();
    let reg3 = Register::new(&["q", "q1", "q2"]).expect("register");
    let (_, f1) = err_corr_derivation(0.6, 0.8, &lib, &reg3, Default::default())
        .expect("Sec. 5.1 derivation checks");
    let reg2b = Register::new(&["q1", "q2"]).expect("register");
    let ((_, f2), dt) = timed(|| {
        qwalk_derivation(&lib, &reg2b, Default::default()).expect("Sec. 5.3 derivation checks")
    });
    println!(
        "- E13 explicit derivations: Sec. 5.1 formula has {} pre-predicate(s); Sec. 5.3 pre = I: {}; qwalk replay {:.3} ms",
        f1.pre.len(),
        f2.pre.ops()[0].approx_eq(&CMat::identity(4), 1e-9),
        dt * 1e3
    );
    // E14: refinement — committing the QEC adversary.
    let spec = parse_stmt("( skip # [q] *= X # [q1] *= X # [q2] *= X )").expect("parses");
    let commit = parse_stmt("[q1] *= X").expect("parses");
    let widened = parse_stmt("( skip # [q] *= X # [q] *= Y )").expect("parses");
    let r1 = refines_denotationally(&spec, &commit, &lib, &reg3).expect("loop-free");
    let r2 = refines_denotationally(&spec, &widened, &lib, &reg3).expect("loop-free");
    println!(
        "- E14 refinement: committed adversary refines = {}; widened adversary refines = {}",
        r1.refines(),
        r2.refines()
    );
    // E15: termination classification.
    use nqpv_semantics::{classify_termination, termination_bounds, DenoteOptions};
    let reg1 = Register::new(&["q"]).expect("register");
    let rows: [(&str, &str, &Register, &str); 3] = [
        (
            "QWalk",
            "[q1 q2] := 0; while MQWalk[q1 q2] do ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) end",
            &reg2b,
            "00",
        ),
        ("RUS", "[q] := 0; [q] *= H; while M01[q] do [q] *= H end", &reg1, "0"),
        ("lazy", "while M01[q] do ( [q] *= H # skip ) end", &reg1, "1"),
    ];
    for (name, src, reg, input) in rows {
        let prog = parse_stmt(src).expect("parses");
        let b = termination_bounds(
            &prog,
            &ket(input).projector(),
            &lib,
            reg,
            DenoteOptions {
                loop_depth: 16,
                max_set: 4096,
                dedupe: true,
            },
        )
        .expect("analysis runs");
        println!(
            "- E15 termination {name}: demonic {:.4}, angelic {:.4}, {:?}",
            b.demonic,
            b.angelic,
            classify_termination(b, 1e-3)
        );
    }

    // ------------------------------------------------------------------ E17
    println!("\n## E17: batch-verification engine (corpus, worker pool, verdict cache)\n");
    // Prefer the shipped on-disk corpus; fall back to the in-memory one.
    let corpus_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/corpus");
    let corpus =
        nqpv_engine::Corpus::from_dir(&corpus_dir).unwrap_or_else(|_| nqpv_bench::sample_corpus(4));
    println!("| workers | cache | verified | rejected | errors | verdict hits | verdict rate | evictions | wall time |");
    println!("|---------|-------|----------|----------|--------|--------------|--------------|-----------|-----------|");
    // The `off` rows double as the solver-verdict-cache ablation: with the
    // cache disabled every repeated ⊑_inf query re-runs the solver. The
    // `cap=1` row exercises the LRU bound (`nqpv batch --cache-cap 1`).
    for (jobs, use_cache, cache_cap) in [
        (1usize, true, None),
        (1, false, None),
        (2, true, None),
        (4, true, None),
        (4, false, None),
        (1, true, Some(1usize)),
    ] {
        let report = nqpv_engine::run_batch(
            &corpus,
            &nqpv_engine::BatchOptions {
                jobs,
                use_cache,
                cache_cap,
                ..nqpv_engine::BatchOptions::default()
            },
        );
        let cache_label = match (use_cache, cache_cap) {
            (false, _) => "off".to_string(),
            (true, None) => "on".to_string(),
            (true, Some(cap)) => format!("cap={cap}"),
        };
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.3} ms |",
            report.workers,
            cache_label,
            report.verified_jobs(),
            report.rejected_jobs(),
            report.errored_jobs(),
            report
                .cache
                .map(|c| c.verdict_hits.to_string())
                .unwrap_or_else(|| "-".into()),
            report
                .cache
                .map(|c| format!("{:.1}%", c.verdict_hit_rate() * 100.0))
                .unwrap_or_else(|| "-".into()),
            report
                .cache
                .map(|c| c.verdict_evictions.to_string())
                .unwrap_or_else(|| "-".into()),
            report.total_ms
        );
    }

    println!("\nharness complete.");
}
