//! Named operator library.
//!
//! NQPV programs refer to unitaries, measurements and predicates by name
//! (`X`, `CX`, `M01`, `invN`, …). The library binds those names to concrete
//! matrices. "Some identifiers such as `I` and `Zero` are reserved for
//! commonly used unitary operators, hermitian operators, and measurements"
//! (paper Sec. 6.1) — [`OperatorLibrary::with_builtins`] provides them.

use crate::gates;
use crate::measurement::Measurement;
use nqpv_linalg::{is_predicate, CMat, CVec};
use std::collections::HashMap;
use std::fmt;

/// A library entry.
#[derive(Debug, Clone)]
pub enum LibOp {
    /// A unitary operator (usable in `q̄ *= U`).
    Unitary(CMat),
    /// A two-outcome projective measurement (usable in `if`/`while`).
    Measurement(Measurement),
    /// A hermitian operator with `0 ⊑ M ⊑ I` (usable in assertions).
    Predicate(CMat),
}

impl LibOp {
    /// The number of qubits the operator acts on.
    pub fn n_qubits(&self) -> usize {
        let d = match self {
            LibOp::Unitary(m) | LibOp::Predicate(m) => m.rows(),
            LibOp::Measurement(m) => m.dim(),
        };
        d.trailing_zeros() as usize
    }

    /// A short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            LibOp::Unitary(_) => "unitary",
            LibOp::Measurement(_) => "measurement",
            LibOp::Predicate(_) => "predicate",
        }
    }
}

/// Errors raised when registering or resolving operators.
#[derive(Debug)]
pub enum LibraryError {
    /// Name not present.
    Unknown(String),
    /// Present but of the wrong kind for the usage site.
    WrongKind {
        /// The name looked up.
        name: String,
        /// What the caller needed.
        expected: &'static str,
        /// What the library holds.
        found: &'static str,
    },
    /// Matrix dimension is not a power of two.
    NotQubitSized(String),
    /// Registration rejected: not unitary / not a predicate.
    InvalidOperator {
        /// The name being registered.
        name: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::Unknown(n) => write!(f, "unknown operator '{n}'"),
            LibraryError::WrongKind {
                name,
                expected,
                found,
            } => write!(f, "operator '{name}' is a {found}, expected a {expected}"),
            LibraryError::NotQubitSized(n) => {
                write!(f, "operator '{n}' dimension is not a power of two")
            }
            LibraryError::InvalidOperator { name, reason } => {
                write!(f, "invalid operator '{name}': {reason}")
            }
        }
    }
}

impl std::error::Error for LibraryError {}

/// A mutable map from names to operators, pre-seeded with the standard
/// gate/measurement/predicate set.
///
/// # Examples
///
/// ```
/// use nqpv_quantum::{OperatorLibrary, LibOp};
/// let lib = OperatorLibrary::with_builtins();
/// assert!(matches!(lib.get("H"), Some(LibOp::Unitary(_))));
/// assert!(matches!(lib.get("M01"), Some(LibOp::Measurement(_))));
/// assert!(matches!(lib.get("Zero"), Some(LibOp::Predicate(_))));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OperatorLibrary {
    map: HashMap<String, LibOp>,
}

impl OperatorLibrary {
    /// An empty library.
    pub fn new() -> Self {
        OperatorLibrary::default()
    }

    /// A library pre-populated with the reserved identifiers:
    ///
    /// * unitaries `I X Y Z H S T CX CNOT C0X CZ SWAP CCX W1 W2`;
    /// * measurements `M01` (computational), `Mpm` (`{|+⟩⟨+|,|−⟩⟨−|}`),
    ///   `MQWalk` (the Sec. 5.3 boundary measurement);
    /// * predicates `I` (also usable as assertion), `Zero`, `P0 P1 Pp Pm`
    ///   (rank-1 projectors).
    pub fn with_builtins() -> Self {
        let mut lib = OperatorLibrary::new();
        for name in [
            "I", "X", "Y", "Z", "H", "S", "T", "CX", "CNOT", "C0X", "CZ", "SWAP", "CCX", "W1", "W2",
        ] {
            let m = gates::by_name(name).expect("builtin gate");
            lib.map.insert(name.to_string(), LibOp::Unitary(m));
        }
        lib.map.insert(
            "M01".into(),
            LibOp::Measurement(Measurement::computational()),
        );
        lib.map
            .insert("Mpm".into(), LibOp::Measurement(Measurement::plus_minus()));
        lib.map.insert(
            "MQWalk".into(),
            LibOp::Measurement(Measurement::qwalk_boundary()),
        );
        lib.map
            .insert("Zero".into(), LibOp::Predicate(CMat::zeros(2, 2)));
        lib.map
            .insert("P0".into(), LibOp::Predicate(CVec::basis(2, 0).projector()));
        lib.map
            .insert("P1".into(), LibOp::Predicate(CVec::basis(2, 1).projector()));
        let s = std::f64::consts::FRAC_1_SQRT_2;
        lib.map.insert(
            "Pp".into(),
            LibOp::Predicate(CVec::new(vec![nqpv_linalg::cr(s), nqpv_linalg::cr(s)]).projector()),
        );
        lib.map.insert(
            "Pm".into(),
            LibOp::Predicate(CVec::new(vec![nqpv_linalg::cr(s), nqpv_linalg::cr(-s)]).projector()),
        );
        lib
    }

    /// Looks up an entry.
    pub fn get(&self, name: &str) -> Option<&LibOp> {
        self.map.get(name)
    }

    /// `true` if `name` is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// All bound names (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Registers a unitary after validating it.
    ///
    /// # Errors
    ///
    /// Rejects non-square, non-power-of-two or non-unitary matrices.
    pub fn insert_unitary(&mut self, name: &str, m: CMat) -> Result<(), LibraryError> {
        check_qubit_sized(name, &m)?;
        if !m.is_unitary(1e-8) {
            return Err(LibraryError::InvalidOperator {
                name: name.to_string(),
                reason: "matrix is not unitary".into(),
            });
        }
        self.map.insert(name.to_string(), LibOp::Unitary(m));
        Ok(())
    }

    /// Registers a measurement.
    pub fn insert_measurement(&mut self, name: &str, m: Measurement) {
        self.map.insert(name.to_string(), LibOp::Measurement(m));
    }

    /// Registers a predicate (`0 ⊑ M ⊑ I`) after validating it.
    ///
    /// # Errors
    ///
    /// Rejects matrices outside the predicate interval.
    pub fn insert_predicate(&mut self, name: &str, m: CMat) -> Result<(), LibraryError> {
        check_qubit_sized(name, &m)?;
        if !is_predicate(&m, 1e-7) {
            return Err(LibraryError::InvalidOperator {
                name: name.to_string(),
                reason: "matrix is not a quantum predicate (needs 0 ⊑ M ⊑ I)".into(),
            });
        }
        self.map.insert(name.to_string(), LibOp::Predicate(m));
        Ok(())
    }

    /// Auto-classifies and registers a raw matrix, the way the tool treats a
    /// loaded `.npy`: unitaries become [`LibOp::Unitary`], predicate-interval
    /// hermitians become [`LibOp::Predicate`].
    ///
    /// # Errors
    ///
    /// Rejects matrices that are neither.
    pub fn insert_auto(&mut self, name: &str, m: CMat) -> Result<(), LibraryError> {
        check_qubit_sized(name, &m)?;
        if m.is_unitary(1e-8) && !m.is_identity(1e-12) {
            // Prefer the unitary reading except for the identity, which is
            // more useful as the `true` predicate.
            self.map.insert(name.to_string(), LibOp::Unitary(m));
            Ok(())
        } else if is_predicate(&m, 1e-7) {
            self.map.insert(name.to_string(), LibOp::Predicate(m));
            Ok(())
        } else {
            Err(LibraryError::InvalidOperator {
                name: name.to_string(),
                reason: "matrix is neither unitary nor a quantum predicate".into(),
            })
        }
    }

    /// Resolves a unitary by name.
    ///
    /// # Errors
    ///
    /// [`LibraryError::Unknown`] or [`LibraryError::WrongKind`].
    pub fn unitary(&self, name: &str) -> Result<&CMat, LibraryError> {
        match self.get(name) {
            Some(LibOp::Unitary(m)) => Ok(m),
            Some(other) => Err(LibraryError::WrongKind {
                name: name.to_string(),
                expected: "unitary",
                found: other.kind(),
            }),
            None => Err(LibraryError::Unknown(name.to_string())),
        }
    }

    /// Resolves a measurement by name.
    ///
    /// # Errors
    ///
    /// [`LibraryError::Unknown`] or [`LibraryError::WrongKind`].
    pub fn measurement(&self, name: &str) -> Result<&Measurement, LibraryError> {
        match self.get(name) {
            Some(LibOp::Measurement(m)) => Ok(m),
            Some(other) => Err(LibraryError::WrongKind {
                name: name.to_string(),
                expected: "measurement",
                found: other.kind(),
            }),
            None => Err(LibraryError::Unknown(name.to_string())),
        }
    }

    /// Resolves a predicate by name. The identity unitary `I` doubles as the
    /// `true` predicate, as in the tool.
    ///
    /// # Errors
    ///
    /// [`LibraryError::Unknown`] or [`LibraryError::WrongKind`].
    pub fn predicate(&self, name: &str) -> Result<&CMat, LibraryError> {
        match self.get(name) {
            Some(LibOp::Predicate(m)) => Ok(m),
            Some(LibOp::Unitary(m)) if m.is_identity(1e-12) => Ok(m),
            Some(other) => Err(LibraryError::WrongKind {
                name: name.to_string(),
                expected: "predicate",
                found: other.kind(),
            }),
            None => Err(LibraryError::Unknown(name.to_string())),
        }
    }
}

fn check_qubit_sized(name: &str, m: &CMat) -> Result<(), LibraryError> {
    if !m.is_square() || !m.rows().is_power_of_two() {
        return Err(LibraryError::NotQubitSized(name.to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_with_correct_kinds() {
        let lib = OperatorLibrary::with_builtins();
        assert!(lib.unitary("CX").is_ok());
        assert!(lib.measurement("MQWalk").is_ok());
        assert!(lib.predicate("Zero").is_ok());
        assert!(lib.predicate("P0").is_ok());
        // I is usable both ways.
        assert!(lib.unitary("I").is_ok());
        assert!(lib.predicate("I").is_ok());
        // Wrong kinds produce WrongKind errors.
        assert!(matches!(
            lib.unitary("M01"),
            Err(LibraryError::WrongKind { .. })
        ));
        assert!(matches!(
            lib.measurement("X"),
            Err(LibraryError::WrongKind { .. })
        ));
        assert!(matches!(
            lib.predicate("nope"),
            Err(LibraryError::Unknown(_))
        ));
    }

    #[test]
    fn insert_unitary_validates() {
        let mut lib = OperatorLibrary::new();
        assert!(lib.insert_unitary("G", gates::h()).is_ok());
        let bad = CMat::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        assert!(matches!(
            lib.insert_unitary("B", bad),
            Err(LibraryError::InvalidOperator { .. })
        ));
        let odd = CMat::identity(3);
        assert!(matches!(
            lib.insert_unitary("O", odd),
            Err(LibraryError::NotQubitSized(_))
        ));
    }

    #[test]
    fn insert_predicate_validates_interval() {
        let mut lib = OperatorLibrary::new();
        assert!(lib
            .insert_predicate("half", CMat::identity(2).scale_re(0.5))
            .is_ok());
        assert!(matches!(
            lib.insert_predicate("big", CMat::identity(2).scale_re(2.0)),
            Err(LibraryError::InvalidOperator { .. })
        ));
    }

    #[test]
    fn insert_auto_classifies() {
        let mut lib = OperatorLibrary::new();
        lib.insert_auto("g", gates::x()).unwrap();
        assert!(matches!(lib.get("g"), Some(LibOp::Unitary(_))));
        lib.insert_auto("p", CMat::identity(2).scale_re(0.25))
            .unwrap();
        assert!(matches!(lib.get("p"), Some(LibOp::Predicate(_))));
        // identity is registered as predicate-compatible
        lib.insert_auto("id", CMat::identity(4)).unwrap();
        assert!(matches!(lib.get("id"), Some(LibOp::Predicate(_))));
        let bad = CMat::from_real(2, 2, &[3.0, 0.0, 0.0, 0.0]);
        assert!(lib.insert_auto("bad", bad).is_err());
    }

    #[test]
    fn n_qubits_of_entries() {
        let lib = OperatorLibrary::with_builtins();
        assert_eq!(lib.get("CX").unwrap().n_qubits(), 2);
        assert_eq!(lib.get("MQWalk").unwrap().n_qubits(), 2);
        assert_eq!(lib.get("P0").unwrap().n_qubits(), 1);
    }
}
