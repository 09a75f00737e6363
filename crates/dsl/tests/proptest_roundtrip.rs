//! Property tests: the AST pretty-printer emits parseable source that
//! parses back to the identical AST. The monitor ships scripts as source
//! text, so this invariant is the wire-format correctness of the DSL.

use mala_dsl::ast::{print_block, TableItem};
use mala_dsl::{BinOp, Block, Expr, Script, Stmt, UnOp};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| mala_dsl::ast::is_identifier(s))
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Or),
        Just(BinOp::And),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Concat),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Pow),
    ]
}

fn arb_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![Just(UnOp::Neg), Just(UnOp::Not), Just(UnOp::Len)]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::Nil),
        any::<bool>().prop_map(Expr::Bool),
        // Restrict to values whose Display round-trips exactly.
        (0u32..100_000).prop_map(|n| Expr::Num(n as f64)),
        (0u32..1000).prop_map(|n| Expr::Num(n as f64 + 0.5)),
        "[ -~]{0,8}".prop_map(|s| Expr::Str(s.into_bytes().into())),
        // Literals are bytes: any of them, printed with escapes.
        prop::collection::vec(any::<u8>(), 0..8).prop_map(|b| Expr::Str(b.into())),
        arb_name().prop_map(Expr::Var),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Bin(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (arb_unop(), inner.clone()).prop_map(|(op, e)| Expr::Un(op, Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(b, i)| Expr::Index(Box::new(b), Box::new(i))),
            (inner.clone(), arb_name()).prop_map(|(b, f)| {
                let field = Expr::Str(f.into_bytes().into());
                Expr::Index(Box::new(b), Box::new(field))
            }),
            (inner.clone(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| Expr::Call(Box::new(f), args)),
            prop::collection::vec(
                prop_oneof![
                    inner.clone().prop_map(TableItem::Positional),
                    (arb_name(), inner.clone()).prop_map(|(k, v)| TableItem::Named(k, v)),
                ],
                0..4
            )
            .prop_map(Expr::TableLit),
        ]
    })
}

/// Statements that may appear anywhere in a block. `return`/`break` are
/// excluded here: as in Lua, they may only terminate a block, and the
/// generator appends them separately (see [`arb_block`]).
fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let simple = prop_oneof![
        (arb_name(), arb_expr()).prop_map(|(n, e)| Stmt::Local(n, e)),
        (arb_name(), arb_expr()).prop_map(|(n, e)| Stmt::Assign(Expr::Var(n), e)),
        (arb_expr(), arb_expr(), arb_expr())
            .prop_map(|(b, i, v)| Stmt::Assign(Expr::Index(Box::new(b), Box::new(i)), v)),
        (arb_expr(), prop::collection::vec(arb_expr(), 0..3))
            .prop_map(|(f, args)| Stmt::ExprStmt(Expr::Call(Box::new(f), args))),
    ];
    simple.prop_recursive(2, 12, 3, |inner| {
        let block = prop::collection::vec(inner, 0..3);
        prop_oneof![
            (arb_expr(), block.clone(), prop::option::of(block.clone()))
                .prop_map(|(c, b, e)| Stmt::If(vec![(c, b)], e)),
            (arb_expr(), block.clone()).prop_map(|(c, b)| Stmt::While(c, b)),
            (block.clone(), arb_expr()).prop_map(|(b, c)| Stmt::Repeat(b, c)),
            (
                arb_name(),
                arb_expr(),
                arb_expr(),
                prop::option::of(arb_expr()),
                block.clone()
            )
                .prop_map(|(var, start, stop, step, body)| Stmt::NumFor {
                    var,
                    start,
                    stop,
                    step,
                    body
                }),
            (arb_name(), arb_name(), arb_expr(), block.clone()).prop_map(
                |(key, value, iter, body)| Stmt::GenFor {
                    key,
                    value,
                    iter,
                    body
                }
            ),
            (
                arb_name(),
                prop::collection::vec(arb_name(), 0..3),
                block.clone()
            )
                .prop_map(|(name, params, body)| Stmt::FuncDecl { name, params, body }),
        ]
    })
}

fn arb_block() -> impl Strategy<Value = Block> {
    let terminator = prop_oneof![
        Just(Vec::new()),
        prop::option::of(arb_expr()).prop_map(|e| vec![Stmt::Return(e)]),
        Just(vec![Stmt::Break]),
    ];
    (prop::collection::vec(arb_stmt(), 0..6), terminator).prop_map(|(mut stmts, term)| {
        stmts.extend(term);
        stmts
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_then_parse_is_identity(block in arb_block()) {
        let printed = print_block(&block);
        let reparsed = Script::compile(&printed)
            .unwrap_or_else(|e| panic!("printer emitted unparseable source: {e}\n{printed}"));
        prop_assert_eq!(reparsed.block, block, "source:\n{}", printed);
    }

    #[test]
    fn printer_is_stable_fixpoint(block in arb_block()) {
        let once = print_block(&block);
        let twice = print_block(&Script::compile(&once).unwrap().block);
        prop_assert_eq!(once, twice);
    }
}
