//! The MLC abstract syntax tree.

use cmo_frontend::Pos;

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

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Scalar type (`int` or `float`; arrays cannot be passed).
    pub ty: TypeName,
    /// Source position.
    pub pos: Pos,
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
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression's kind and children.
    pub kind: ExprKind,
    /// Source position.
    pub pos: Pos,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Scalar variable reference.
    Name(String),
    /// Array element: `name[index]`.
    Index(String, Box<Expr>),
    /// Binary operation.
    Bin(BinExprOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnExprOp, Box<Expr>),
    /// Call: `name(args)`.
    Call(String, Vec<Expr>),
    /// `input()` builtin.
    Input,
    /// `float(e)` builtin conversion.
    ToFloat(Box<Expr>),
    /// `int(e)` builtin conversion.
    ToInt(Box<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement's kind and children.
    pub kind: StmtKind,
    /// Source position.
    pub pos: Pos,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `var name: ty = init;`
    Var {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: TypeName,
        /// Optional scalar initializer.
        init: Option<Expr>,
    },
    /// `name = expr;`
    Assign {
        /// Target variable.
        name: String,
        /// Value.
        value: Expr,
    },
    /// `name[index] = expr;`
    AssignElem {
        /// Target array.
        name: String,
        /// Element index.
        index: Expr,
        /// Value.
        value: Expr,
    },
    /// `if (cond) { then } else { els }`
    If {
        /// Condition (integer).
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { body }`
    While {
        /// Condition (integer).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) { body }` — sugar the parser keeps as a
    /// distinct node so `continue` can jump to the step.
    For {
        /// Loop variable initialization (a `var` or assignment).
        init: Box<Stmt>,
        /// Condition (integer).
        cond: Expr,
        /// Step statement (an assignment).
        step: Box<Stmt>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `break;` out of the innermost loop.
    Break,
    /// `continue;` to the innermost loop's next iteration.
    Continue,
    /// `return expr?;`
    Return(Option<Expr>),
    /// `output(expr);`
    Output(Expr),
    /// An expression evaluated for effect (a call).
    Expr(Expr),
}

/// A module-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `global`/`static` variable definition.
    Global {
        /// Variable name.
        name: String,
        /// Type.
        ty: TypeName,
        /// `true` for `static` (module-internal).
        internal: bool,
        /// Scalar initializer, if given.
        scalar_init: Option<Expr>,
        /// Array initializer, if given.
        array_init: Option<Vec<Expr>>,
        /// Source position.
        pos: Pos,
    },
    /// Function definition.
    Function {
        /// Function name.
        name: String,
        /// Parameters.
        params: Vec<Param>,
        /// Return type (`None` for procedures).
        ret: Option<TypeName>,
        /// Body statements.
        body: Vec<Stmt>,
        /// `true` for `static fn` (module-internal).
        internal: bool,
        /// Source position.
        pos: Pos,
        /// Lines spanned by the definition.
        lines: u32,
    },
    /// `extern fn` declaration.
    ExternFn {
        /// Function name.
        name: String,
        /// Parameter types.
        params: Vec<TypeName>,
        /// Return type.
        ret: Option<TypeName>,
        /// Source position.
        pos: Pos,
    },
    /// `extern global` declaration.
    ExternGlobal {
        /// Variable name.
        name: String,
        /// Type.
        ty: TypeName,
        /// Source position.
        pos: Pos,
    },
}

/// A parsed module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Items in source order.
    pub items: Vec<Item>,
}
