//! The capture pre-pass: which locals nested functions can reach.

use std::collections::BTreeSet;

use crate::ast::{Block, Expr, Stmt, TableItem};

/// Conservative capture analysis: every variable name referenced anywhere
/// inside a nested function literal of `block`. Locals with these names
/// are boxed; over-approximation (shadowed names) costs a box, never
/// correctness.
pub(super) fn captured_names(block: &Block) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    walk_block(block, false, &mut set);
    set
}

fn walk_block(block: &Block, inside_fn: bool, set: &mut BTreeSet<String>) {
    for stmt in block {
        walk_stmt(stmt, inside_fn, set);
    }
}

/// Names declared inside a nested function count like names it reads.
fn note<'a>(
    names: impl IntoIterator<Item = &'a String>,
    inside_fn: bool,
    set: &mut BTreeSet<String>,
) {
    if inside_fn {
        set.extend(names.into_iter().cloned());
    }
}

fn walk_exprs<'a>(
    es: impl IntoIterator<Item = &'a Expr>,
    inside_fn: bool,
    set: &mut BTreeSet<String>,
) {
    for e in es {
        walk_expr(e, inside_fn, set);
    }
}

fn walk_stmt(stmt: &Stmt, inside_fn: bool, set: &mut BTreeSet<String>) {
    match stmt {
        Stmt::Local(name, e) => {
            note([name], inside_fn, set);
            walk_expr(e, inside_fn, set);
        }
        Stmt::Assign(l, r) => walk_exprs([l, r], inside_fn, set),
        Stmt::ExprStmt(e) | Stmt::Return(Some(e)) => walk_expr(e, inside_fn, set),
        Stmt::If(arms, else_blk) => {
            for (c, b) in arms {
                walk_expr(c, inside_fn, set);
                walk_block(b, inside_fn, set);
            }
            if let Some(b) = else_blk {
                walk_block(b, inside_fn, set);
            }
        }
        Stmt::While(c, b) | Stmt::Repeat(b, c) => {
            walk_expr(c, inside_fn, set);
            walk_block(b, inside_fn, set);
        }
        Stmt::NumFor {
            var,
            start,
            stop,
            step,
            body,
        } => {
            note([var], inside_fn, set);
            walk_exprs([start, stop].into_iter().chain(step), inside_fn, set);
            walk_block(body, inside_fn, set);
        }
        Stmt::GenFor {
            key,
            value,
            iter,
            body,
        } => {
            note([key, value], inside_fn, set);
            walk_expr(iter, inside_fn, set);
            walk_block(body, inside_fn, set);
        }
        Stmt::FuncDecl { params, body, .. } => {
            note(params, inside_fn, set);
            walk_block(body, true, set);
        }
        Stmt::Return(None) | Stmt::Break => {}
    }
}

fn walk_expr(e: &Expr, inside_fn: bool, set: &mut BTreeSet<String>) {
    match e {
        Expr::Var(name) => note([name], inside_fn, set),
        Expr::TableLit(items) => {
            for item in items {
                let (TableItem::Positional(e) | TableItem::Named(_, e)) = item;
                walk_expr(e, inside_fn, set);
            }
        }
        Expr::Index(a, b) | Expr::Bin(_, a, b) => walk_exprs([&**a, &**b], inside_fn, set),
        Expr::Call(f, args) => walk_exprs(std::iter::once(&**f).chain(args), inside_fn, set),
        Expr::Lambda(params, body) => {
            note(params, inside_fn, set);
            walk_block(body, true, set);
        }
        Expr::Un(_, e) => walk_expr(e, inside_fn, set),
        Expr::Nil | Expr::Bool(_) | Expr::Num(_) | Expr::Str(_) => {}
    }
}
