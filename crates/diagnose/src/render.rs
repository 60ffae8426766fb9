//! Rendering of [`Counterexample`](crate::Counterexample)s: a JSON
//! value (embedded in the engine's batch report and the service's NDJSON
//! `verdict` events) and a human-readable story.

use crate::{Counterexample, TrajectoryPoint, Witness};
use nqpv_linalg::Complex;
use nqpv_telemetry::json::{n, obj, s, Json};
use std::fmt::Write as _;

impl Counterexample {
    /// The counterexample as a JSON object; it renders on one line.
    pub fn to_json(&self) -> Json {
        let schedule = self
            .schedule
            .iter()
            .map(|step| {
                obj(vec![
                    ("index", n(step.index as f64)),
                    ("branch", s(if step.right { "right" } else { "left" })),
                ])
            })
            .collect();
        let trajectory = self
            .trajectory
            .iter()
            .map(|p| {
                obj(vec![
                    ("statement", s(p.statement.as_str())),
                    ("expectation", n(p.expectation)),
                    ("trace", n(p.trace)),
                ])
            })
            .collect();
        obj(vec![
            ("proof", s(self.proof.as_str())),
            ("obligation", s(self.obligation.as_str())),
            ("vc_index", n(self.vc_index as f64)),
            ("confirmed", Json::Bool(self.confirmed)),
            ("exhaustive", Json::Bool(self.exhaustive)),
            ("gap", n(self.gap)),
            ("solver_margin", n(self.solver_margin)),
            ("pre_expectation", n(self.pre_expectation)),
            ("post_expectation", n(self.post_expectation)),
            ("witness", witness_json(&self.witness)),
            ("schedule", Json::Arr(schedule)),
            ("trajectory", Json::Arr(trajectory)),
        ])
    }

    /// Multi-line human rendering: witness amplitudes, the demon's branch
    /// choices, and the per-statement expectation trajectory.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "counterexample for proof '{}':", self.proof);
        let _ = writeln!(out, "  obligation: {}", self.obligation);
        match &self.witness.amplitudes {
            Some(amps) => {
                let rendered: Vec<String> = amps
                    .iter()
                    .enumerate()
                    .filter(|(_, z)| z.abs() > 1e-9)
                    .map(|(i, z)| {
                        let bits = format!(
                            "{:0width$b}",
                            i,
                            width = amps.len().trailing_zeros() as usize
                        );
                        if z.im.abs() < 1e-9 {
                            format!("{:+.4}·|{}⟩", z.re, bits)
                        } else {
                            format!("({:+.4}{:+.4}i)·|{}⟩", z.re, z.im, bits)
                        }
                    })
                    .collect();
                let _ = writeln!(out, "  witness |v⟩ = {}", rendered.join(" "));
            }
            None => {
                let _ = writeln!(
                    out,
                    "  witness ρ: mixed state (purity {:.4}), dim {}",
                    self.witness.purity,
                    self.witness.rho.rows()
                );
            }
        }
        if self.schedule.is_empty() {
            let _ = writeln!(out, "  scheduler: (no nondeterministic choices)");
        } else {
            let choices: Vec<String> = self
                .schedule
                .iter()
                .map(|s| format!("#{} → {}", s.index, if s.right { "right" } else { "left" }))
                .collect();
            let _ = writeln!(
                out,
                "  scheduler ({}): {}",
                if self.exhaustive {
                    "exhaustive search"
                } else {
                    "best found within budget"
                },
                choices.join(", ")
            );
        }
        let _ = writeln!(out, "  trajectory (expectation of the required condition):");
        for TrajectoryPoint {
            statement,
            expectation,
            trace,
        } in &self.trajectory
        {
            let _ = writeln!(
                out,
                "    {expectation:>8.4}  (mass {trace:.4})  after {statement}"
            );
        }
        let _ = writeln!(
            out,
            "  promised Exp(ρ ⊨ pre) = {:.6}, delivered = {:.6}",
            self.pre_expectation, self.post_expectation
        );
        let _ = writeln!(
            out,
            "  replay gap = {:.6} (solver margin {:.6}) — {}",
            self.gap,
            self.solver_margin,
            if self.confirmed {
                "CONFIRMED violation"
            } else {
                "below confirmation threshold"
            }
        );
        out
    }
}

fn witness_json(w: &Witness) -> Json {
    let pair = |z: Complex| Json::Arr(vec![n(z.re), n(z.im)]);
    let mut members = vec![("dim", n(w.rho.rows() as f64)), ("purity", n(w.purity))];
    if let Some(amps) = &w.amplitudes {
        members.push((
            "amplitudes",
            Json::Arr(amps.iter().copied().map(pair).collect()),
        ));
    }
    let rho = (0..w.rho.rows())
        .map(|i| Json::Arr((0..w.rho.cols()).map(|j| pair(w.rho[(i, j)])).collect()))
        .collect();
    members.push(("rho", Json::Arr(rho)));
    obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain_source;
    use nqpv_core::VcOptions;
    use std::path::Path;

    fn sample() -> Counterexample {
        let report = explain_source(
            "def pf := proof [q] : { P0[q] }; ( skip # [q] *= X ); { P0[q] } end",
            Path::new("."),
            VcOptions::default(),
        )
        .unwrap();
        report[0].counterexample.clone().expect("rejected")
    }

    #[test]
    fn json_is_single_line_and_balanced() {
        let json = sample().to_json().to_string();
        assert!(!json.contains('\n'), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}: {json}"
            );
        }
        for needle in [
            "\"proof\":\"pf\"",
            "\"confirmed\":true",
            "\"gap\":1",
            "\"schedule\":[{\"index\":0,\"branch\":\"right\"}]",
            "\"amplitudes\":",
            "\"rho\":",
            "\"trajectory\":",
        ] {
            assert!(json.contains(needle), "missing {needle}: {json}");
        }
    }

    #[test]
    fn human_story_names_the_branches_and_the_gap() {
        let text = sample().human();
        assert!(text.contains("counterexample for proof 'pf'"), "{text}");
        assert!(text.contains("#0 → right"), "{text}");
        assert!(text.contains("CONFIRMED violation"), "{text}");
        assert!(text.contains("|0⟩"), "{text}");
    }

    #[test]
    fn json_numbers_are_plain() {
        // Numbers go through the shared writer: shortest round-trip
        // digits, no exponent, and `null` for a non-finite value.
        let mut cex = sample();
        cex.gap = 0.5;
        cex.solver_margin = 1e-20;
        cex.pre_expectation = f64::NAN;
        let json = cex.to_json().to_string();
        assert!(json.contains("\"gap\":0.5,"), "{json}");
        assert!(
            json.contains("\"solver_margin\":0.00000000000000000001,"),
            "{json}"
        );
        assert!(json.contains("\"pre_expectation\":null,"), "{json}");
        assert!(json.contains("\"proof\":\"pf\""), "{json}");
    }
}
