//! # nqpv
//!
//! A from-scratch Rust reproduction of **"Verification of Nondeterministic
//! Quantum Programs"** (Feng & Xu, ASPLOS 2023): the nondeterministic
//! quantum while-language, its lifted denotational semantics, quantum
//! assertions as finite sets of hermitian operators, sound & relatively
//! complete Hoare logics for partial and total correctness, and the NQPV
//! proof-assistant prototype (parser, backward verification-condition
//! generation, `⊑_inf` decision procedure, proof outlines).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`linalg`] — complex dense linear algebra (eigensolvers, Cholesky,
//!   tensor machinery, `.npy` I/O);
//! * [`quantum`] — registers, states, gates, measurements, super-operators;
//! * [`lang`] — AST, parser and pretty-printer for the NQPV language;
//! * [`semantics`] — `[[S]]` as sets of super-operators, schedulers,
//!   forward execution, the Sec. 3.3 model separations;
//! * [`solver`] — the `⊑_inf` decision procedure (primal/dual minimax);
//! * [`core`] — assertions, wp/wlp, proof objects, the verifier and the
//!   paper's case studies;
//! * [`diagnose`] — counterexample extraction & replay: REJECTED
//!   verdicts become witness states, demonic scheduler traces and
//!   per-statement expectation trajectories, confirmed by forward
//!   replay;
//! * [`engine`] — the batch-verification engine: corpora of `.nqpv`
//!   jobs, a parallel worker pool, a shared content-addressed solver
//!   verdict cache, and the persistent on-disk verdict store;
//! * [`service`] — the async verification daemon: NDJSON-over-TCP job
//!   submission with priorities, streamed per-job reports, and the
//!   blocking client.
//!
//! # Quickstart
//!
//! ```
//! use nqpv::core::casestudies;
//!
//! // Verify the paper's three-qubit error-correction case study.
//! let outcome = casestudies::err_corr(0.6, 0.8).verify()?;
//! assert!(outcome.status.verified());
//! # Ok::<(), nqpv::core::VerifError>(())
//! ```

pub use nqpv_core as core;
pub use nqpv_diagnose as diagnose;
pub use nqpv_engine as engine;
pub use nqpv_lang as lang;
pub use nqpv_linalg as linalg;
pub use nqpv_quantum as quantum;
pub use nqpv_semantics as semantics;
pub use nqpv_service as service;
pub use nqpv_solver as solver;
