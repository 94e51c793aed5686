//! The MLC abstract syntax tree.
//!
//! Nodes live in flat per-module arenas and refer to each other by
//! `u32` index; names are [`NameId`]s and positions are byte offsets.
//! Every node type is `Copy`, so a [`Module`] is a handful of vectors:
//! building it allocates per arena, not per node, and dropping it
//! visits nothing.
//!
//! A node's children are pushed before the node itself, and the
//! members of a list (a block's statements, a call's arguments) are
//! pushed together when the list is complete, so a list is a
//! contiguous [`Span`] of its arena.

use crate::lexer::LineTable;
use crate::names::{NameId, NameTable};
use crate::Pos;

/// A type annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    /// `int`
    Int,
    /// `float`
    Float,
    /// `int[N]`
    IntArray(u32),
    /// `float[N]`
    FloatArray(u32),
}

impl TypeName {
    /// Returns `true` for array types.
    #[must_use]
    pub fn is_array(self) -> bool {
        matches!(self, TypeName::IntArray(_) | TypeName::FloatArray(_))
    }
}

/// An expression in [`Module`]'s expression arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(u32);

/// A statement in [`Module`]'s statement arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtId(u32);

/// A contiguous run of one of [`Module`]'s arenas; which one is fixed
/// by the field holding the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Number of elements.
    #[must_use]
    pub const fn len(self) -> usize {
        self.len as usize
    }

    /// Returns `true` for an empty run.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// A formal parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: NameId,
    /// Scalar type (`int` or `float`; arrays cannot be passed).
    pub ty: TypeName,
    /// Byte offset in the source.
    pub offset: u32,
}

/// Binary operators at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinExprOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (evaluates both operands)
    And,
    /// `||` (evaluates both operands)
    Or,
}

/// Unary operators at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnExprOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// An expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expr {
    /// The expression's kind and children.
    pub kind: ExprKind,
    /// Byte offset in the source.
    pub offset: u32,
}

/// Expression kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Scalar variable reference.
    Name(NameId),
    /// Array element: `name[index]`.
    Index(NameId, ExprId),
    /// Binary operation.
    Bin(BinExprOp, ExprId, ExprId),
    /// Unary operation.
    Un(UnExprOp, ExprId),
    /// Call: `name(args)`; the arguments are a run of expressions.
    Call(NameId, Span),
    /// `input()` builtin.
    Input,
    /// `float(e)` builtin conversion.
    ToFloat(ExprId),
    /// `int(e)` builtin conversion.
    ToInt(ExprId),
}

/// A statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stmt {
    /// The statement's kind and children.
    pub kind: StmtKind,
    /// Byte offset in the source.
    pub offset: u32,
}

/// Statement kinds. Bodies are runs of statements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StmtKind {
    /// `var name: ty = init;`
    Var {
        /// Variable name.
        name: NameId,
        /// Declared type.
        ty: TypeName,
        /// Optional scalar initializer.
        init: Option<ExprId>,
    },
    /// `name = expr;`
    Assign {
        /// Target variable.
        name: NameId,
        /// Value.
        value: ExprId,
    },
    /// `name[index] = expr;`
    AssignElem {
        /// Target array.
        name: NameId,
        /// Element index.
        index: ExprId,
        /// Value.
        value: ExprId,
    },
    /// `if (cond) { then } else { els }`
    If {
        /// Condition (integer).
        cond: ExprId,
        /// Then branch.
        then_body: Span,
        /// Else branch (possibly empty; an `else if` is a run of one).
        else_body: Span,
    },
    /// `while (cond) { body }`
    While {
        /// Condition (integer).
        cond: ExprId,
        /// Loop body.
        body: Span,
    },
    /// `for (init; cond; step) { body }` — sugar the parser keeps as a
    /// distinct node so `continue` can jump to the step.
    For {
        /// Loop variable initialization (a `var` or assignment).
        init: StmtId,
        /// Condition (integer).
        cond: ExprId,
        /// Step statement (an assignment).
        step: StmtId,
        /// Loop body.
        body: Span,
    },
    /// `break;` out of the innermost loop.
    Break,
    /// `continue;` to the innermost loop's next iteration.
    Continue,
    /// `return expr?;`
    Return(Option<ExprId>),
    /// `output(expr);`
    Output(ExprId),
    /// An expression evaluated for effect (a call).
    Expr(ExprId),
}

/// A module-level item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Item {
    /// `global`/`static` variable definition.
    Global {
        /// Variable name.
        name: NameId,
        /// Type.
        ty: TypeName,
        /// `true` for `static` (module-internal).
        internal: bool,
        /// Scalar initializer, if given.
        scalar_init: Option<ExprId>,
        /// Array initializer (a run of expressions), if given.
        array_init: Option<Span>,
        /// Byte offset in the source.
        offset: u32,
    },
    /// Function definition.
    Function {
        /// Function name.
        name: NameId,
        /// Parameters: a run of [`Param`]s.
        params: Span,
        /// Return type (`None` for procedures).
        ret: Option<TypeName>,
        /// Body: a run of statements.
        body: Span,
        /// `true` for `static fn` (module-internal).
        internal: bool,
        /// Byte offset in the source.
        offset: u32,
        /// Lines spanned by the definition.
        lines: u32,
    },
    /// `extern fn` declaration.
    ExternFn {
        /// Function name.
        name: NameId,
        /// Parameter types: a run of [`TypeName`]s.
        params: Span,
        /// Return type.
        ret: Option<TypeName>,
        /// Byte offset in the source.
        offset: u32,
    },
    /// `extern global` declaration.
    ExternGlobal {
        /// Variable name.
        name: NameId,
        /// Type.
        ty: TypeName,
        /// Byte offset in the source.
        offset: u32,
    },
}

/// A parsed module: the items in source order and the arenas their
/// parts live in, borrowing identifier text from the source.
#[derive(Debug, Clone)]
pub struct Module<'s> {
    /// Items in source order.
    pub items: Vec<Item>,
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    params: Vec<Param>,
    extern_params: Vec<TypeName>,
    /// The module's identifiers.
    pub names: NameTable<'s>,
    /// The module's line starts.
    pub lines: LineTable,
}

fn push_run<T>(arena: &mut Vec<T>, run: impl IntoIterator<Item = T>) -> Span {
    let start = arena.len();
    arena.extend(run);
    Span {
        start: u32::try_from(start).expect("arena index fits in u32"),
        len: u32::try_from(arena.len() - start).expect("run length fits in u32"),
    }
}

impl<'s> Module<'s> {
    /// An empty module over a lexed source; `tokens` sizes the arenas.
    pub(crate) fn new(names: NameTable<'s>, lines: LineTable, tokens: usize) -> Self {
        Module {
            items: Vec::new(),
            // Generated MLC has 0.43 expression nodes and 0.09
            // statements per token.
            exprs: Vec::with_capacity(tokens / 2),
            stmts: Vec::with_capacity(tokens / 8),
            params: Vec::new(),
            extern_params: Vec::new(),
            names,
            lines,
        }
    }

    pub(crate) fn push_expr(&mut self, e: Expr) -> ExprId {
        ExprId(push_run(&mut self.exprs, [e]).start)
    }

    pub(crate) fn push_exprs(&mut self, run: impl IntoIterator<Item = Expr>) -> Span {
        push_run(&mut self.exprs, run)
    }

    pub(crate) fn push_stmt(&mut self, s: Stmt) -> StmtId {
        StmtId(push_run(&mut self.stmts, [s]).start)
    }

    pub(crate) fn push_stmts(&mut self, run: impl IntoIterator<Item = Stmt>) -> Span {
        push_run(&mut self.stmts, run)
    }

    pub(crate) fn push_params(&mut self, run: impl IntoIterator<Item = Param>) -> Span {
        push_run(&mut self.params, run)
    }

    pub(crate) fn push_extern_params(&mut self, run: impl IntoIterator<Item = TypeName>) -> Span {
        push_run(&mut self.extern_params, run)
    }

    /// The expression `id` names.
    #[must_use]
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// A run of expressions: call arguments or an array initializer.
    #[must_use]
    pub fn expr_run(&self, run: Span) -> &[Expr] {
        run.of(&self.exprs)
    }

    /// The statement `id` names.
    #[must_use]
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// A run of statements: a body.
    #[must_use]
    pub fn stmt_run(&self, run: Span) -> &[Stmt] {
        run.of(&self.stmts)
    }

    /// The parameters of a [`Item::Function`].
    #[must_use]
    pub fn param_run(&self, run: Span) -> &[Param] {
        run.of(&self.params)
    }

    /// The parameter types of an [`Item::ExternFn`].
    #[must_use]
    pub fn extern_param_run(&self, run: Span) -> &[TypeName] {
        run.of(&self.extern_params)
    }

    /// The text of a name.
    #[must_use]
    pub fn name(&self, id: NameId) -> &'s str {
        self.names.text(id)
    }

    /// The line and column of a node's byte offset.
    #[must_use]
    pub fn pos(&self, offset: u32) -> Pos {
        self.lines.pos(offset)
    }
}
