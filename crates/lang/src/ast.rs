use crate::lexer::Span;

/// A Cmm surface type.
///
/// `Int` and `Ptr` are both 64-bit words and convert implicitly (the
/// distinction is documentation plus a hint to readers of benchmark
/// sources); `Float` is a separate 64-bit floating-point type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    Int,
    Float,
    Ptr,
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Ptr => write!(f, "ptr"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    /// Short-circuit logical and.
    LAnd,
    /// Short-circuit logical or.
    LOr,
}

impl BinOp {
    /// Is this a comparison producing a 0/1 result?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Is this a short-circuit logical operator?
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LAnd | BinOp::LOr)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (0/1 result).
    Not,
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    FloatLit(f64),
    /// The zero pointer literal `null`.
    Null,
    /// A variable reference (local, parameter, or global scalar) or a bare
    /// array name (which denotes its address).
    Var(String),
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Function call, or the builtins `alloc`, `int`, `float`.
    Call {
        name: String,
        args: Vec<Expr>,
    },
    /// `base[index]` — array element or pointer load.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
}

/// A statement with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `type name;` or `type name[N];` (local declaration).
    Decl {
        ty: Type,
        name: String,
        size: Option<i64>,
    },
    /// `lvalue = expr;` where lvalue is a variable or an index expression.
    Assign {
        target: Expr,
        value: Expr,
    },
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    DoWhile {
        body: Vec<Stmt>,
        cond: Expr,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Vec<Stmt>,
    },
    Break,
    Continue,
    Return(Option<Expr>),
    ExprStmt(Expr),
    Block(Vec<Stmt>),
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `global type name;` or `global type name[N];`
    Global {
        ty: Type,
        name: String,
        size: Option<i64>,
        span: Span,
    },
    /// A function definition.
    Function {
        name: String,
        params: Vec<(Type, String)>,
        ret: Option<Type>,
        body: Vec<Stmt>,
        span: Span,
    },
}

/// A parsed Cmm compilation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub items: Vec<Item>,
}

impl Program {
    /// Iterator over function items.
    pub fn functions(&self) -> impl Iterator<Item = &Item> {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::Function { .. }))
    }

    /// Iterator over global items.
    pub fn globals(&self) -> impl Iterator<Item = &Item> {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::Global { .. }))
    }
}
