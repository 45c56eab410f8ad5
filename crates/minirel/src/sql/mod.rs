//! SQL front-end: lexer → parser → binder → planner → lowering → executor.
//!
//! The dialect is sized to the paper: every statement printed in Figures
//! 3–4 and §3.7 parses and runs (see `sql::parser` tests for the verbatim
//! texts).
//!
//! Two engines share the parser and binder:
//!
//! * the staged pipeline ([`bind`] → [`plan`] → [`lower`]) serves all
//!   SELECTs — it pushes predicates into scans, prunes columns, reorders
//!   equi-joins, picks B+tree access paths, and produces cacheable
//!   [`lower::ExecPlan`]s for prepared statements;
//! * the reference interpreter ([`mod@reference`]) runs DML/DDL and doubles
//!   as the correctness oracle the planner-equivalence suite compares
//!   the pipeline against.

pub mod ast;
pub mod bind;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod plan;
pub mod reference;

pub use ast::{AstExpr, InsertSource, SelectStmt, Statement};
pub use bind::BoundCol;
pub use lower::{execute_plan, prepare_plan, ExecPlan};
pub use parser::{parse_script, parse_statement};
pub use reference::{run_select, run_statement, Relation, SqlCtx, StmtResult};
