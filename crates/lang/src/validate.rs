//! Post-parse semantic validation: label resolution, jump-context checks,
//! and switch well-formedness.

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use std::collections::HashSet;

/// Resolves labels and checks semantic rules. Called by both the parser and
/// the builder before a [`Program`] is released to users.
pub(crate) fn validate(prog: &mut Program) -> Result<(), Error> {
    prog.label_targets = resolve_labels(prog)?;
    check_block(prog, &prog.body, &Ctx::default())
}

/// Maps every label to the statement carrying it, checking that no label
/// is attached twice and that every goto / fused conditional goto names a
/// defined label.
fn resolve_labels(prog: &Program) -> Result<Vec<Option<StmtId>>, Error> {
    let mut targets = vec![None; prog.labels.len()];
    for (id, stmt) in prog.stmts.iter().enumerate() {
        for &l in &stmt.labels {
            if targets[l.index()].replace(StmtId(id as u32)).is_some() {
                return Err(Error::new(
                    ErrorKind::DuplicateLabel(prog.label_str(l).to_owned()),
                    stmt.line,
                    0,
                ));
            }
        }
    }
    for stmt in &prog.stmts {
        if let StmtKind::Goto { target } | StmtKind::CondGoto { target, .. } = stmt.kind {
            if targets[target.index()].is_none() {
                return Err(Error::new(
                    ErrorKind::UndefinedLabel(prog.label_str(target).to_owned()),
                    stmt.line,
                    0,
                ));
            }
        }
    }
    Ok(targets)
}

#[derive(Clone, Copy, Default)]
struct Ctx {
    in_loop: bool,
    in_breakable: bool,
}

fn check_block(prog: &Program, block: &[StmtId], ctx: &Ctx) -> Result<(), Error> {
    for &id in block {
        check_stmt(prog, id, ctx)?;
    }
    Ok(())
}

fn check_stmt(prog: &Program, id: StmtId, ctx: &Ctx) -> Result<(), Error> {
    let stmt = prog.stmt(id);
    match &stmt.kind {
        StmtKind::Break if !ctx.in_breakable => {
            return Err(Error::new(ErrorKind::BreakOutsideLoop, stmt.line, 0));
        }
        StmtKind::Continue if !ctx.in_loop => {
            return Err(Error::new(ErrorKind::ContinueOutsideLoop, stmt.line, 0));
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            check_block(prog, then_branch, ctx)?;
            check_block(prog, else_branch, ctx)?;
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            let inner = Ctx {
                in_loop: true,
                in_breakable: true,
            };
            check_block(prog, body, &inner)?;
        }
        StmtKind::Switch { arms, .. } => {
            let mut seen = HashSet::new();
            let mut saw_default = false;
            for arm in arms {
                for g in &arm.guards {
                    match g {
                        CaseGuard::Case(v) => {
                            if !seen.insert(*v) {
                                return Err(Error::new(ErrorKind::DuplicateCase(*v), stmt.line, 0));
                            }
                        }
                        CaseGuard::Default => {
                            if saw_default {
                                return Err(Error::new(ErrorKind::DuplicateDefault, stmt.line, 0));
                            }
                            saw_default = true;
                        }
                    }
                }
            }
            let inner = Ctx {
                in_loop: ctx.in_loop,
                in_breakable: true,
            };
            for arm in arms {
                check_block(prog, &arm.body, &inner)?;
            }
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::error::ErrorKind;
    use crate::parse;

    #[test]
    fn duplicate_label_rejected() {
        let err = parse("L: x = 0; L: y = 0; goto L;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateLabel("L".into()));
    }

    #[test]
    fn duplicate_case_rejected() {
        let err = parse("switch (c) { case 1: x = 0; case 1: y = 0; }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateCase(1));
    }

    #[test]
    fn duplicate_default_rejected() {
        let err = parse("switch (c) { default: x = 0; default: y = 0; }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateDefault);
    }

    #[test]
    fn label_on_nested_statement_resolves() {
        let p = parse("while (1) { L: x = 0; goto L; }").unwrap();
        assert!(p.label_target(p.label("L").unwrap()).is_some());
    }

    #[test]
    fn cond_goto_target_checked() {
        let err = parse("if (x) goto MISSING;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UndefinedLabel("MISSING".into()));
    }

    #[test]
    fn break_in_nested_if_inside_loop_ok() {
        assert!(parse("while (1) { if (x) { break; } }").is_ok());
    }
}
