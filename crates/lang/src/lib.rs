//! # nqpv-lang
//!
//! Front-end of the NQPV verification stack: the abstract syntax of the
//! nondeterministic quantum while-language (paper Sec. 3.1), the concrete
//! NQPV input language of Sec. 6.1 (lexer + parser), and a pretty-printer
//! used for proof-outline output.
//!
//! Operator names stay *symbolic* at this layer; `nqpv-core` binds them to
//! matrices from an operator library when verifying.
//!
//! # Examples
//!
//! ```
//! use nqpv_lang::{parse_stmt, pretty_stmt, Stmt};
//!
//! let s = parse_stmt("( skip # [q] *= X )")?;
//! assert!(matches!(s, Stmt::NDet(_, _)));
//! assert_eq!(parse_stmt(&pretty_stmt(&s))?, s);
//! # Ok::<(), nqpv_lang::ParseError>(())
//! ```

mod ast;
mod lexer;
mod parser;
mod pretty;

pub use ast::{AssertionExpr, Command, Decl, OpApp, ProofTerm, QTuple, SourceFile, Stmt};
pub use lexer::{lex, LexError, Span, Tok, Token};
pub use parser::{parse_proof_body, parse_source, parse_stmt, ParseError, MAX_NESTING};
pub use pretty::{pretty_assertion, pretty_proof_term, pretty_source, pretty_stmt};
