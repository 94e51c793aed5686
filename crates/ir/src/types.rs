//! Scalar types, variable types, constants, and routine signatures.

use std::fmt;

/// Scalar value types of the IL.
///
/// The IL is deliberately small — a 64-bit integer and a 64-bit float —
/// because the paper's techniques are insensitive to the richness of the
/// type system; what matters is code volume and call structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ty {
    /// 64-bit signed integer (also used for booleans: 0 / 1).
    I64,
    /// 64-bit IEEE float.
    F64,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I64 => f.write_str("i64"),
            Ty::F64 => f.write_str("f64"),
        }
    }
}

/// The type of a variable: a scalar or a fixed-length array of scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarTy {
    /// Element scalar type.
    pub scalar: Ty,
    /// `Some(n)` for an `n`-element array, `None` for a plain scalar.
    pub elems: Option<u32>,
}

impl VarTy {
    /// A scalar variable of type `scalar`.
    #[must_use]
    pub const fn scalar(scalar: Ty) -> Self {
        VarTy {
            scalar,
            elems: None,
        }
    }

    /// An array variable of `n` elements of `scalar`.
    #[must_use]
    pub const fn array(scalar: Ty, n: u32) -> Self {
        VarTy {
            scalar,
            elems: Some(n),
        }
    }

    /// Number of scalar slots this variable occupies.
    #[must_use]
    pub fn slots(self) -> u32 {
        self.elems.unwrap_or(1)
    }

    /// Returns `true` for array variables.
    #[must_use]
    pub fn is_array(self) -> bool {
        self.elems.is_some()
    }
}

impl fmt::Display for VarTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.elems {
            Some(n) => write!(f, "{}[{}]", self.scalar, n),
            None => write!(f, "{}", self.scalar),
        }
    }
}

/// A compile-time constant value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    /// Integer constant.
    I(i64),
    /// Float constant.
    F(f64),
}

impl Const {
    /// The scalar type of this constant.
    #[must_use]
    pub fn ty(self) -> Ty {
        match self {
            Const::I(_) => Ty::I64,
            Const::F(_) => Ty::F64,
        }
    }

    /// Returns `true` when this constant is the integer zero or float
    /// positive zero (used as "false" by conditional branches).
    #[must_use]
    pub fn is_zero(self) -> bool {
        match self {
            Const::I(v) => v == 0,
            Const::F(v) => v == 0.0,
        }
    }

    /// Bit-level equality: float payloads compare by bit pattern so that
    /// optimization decisions are deterministic even for NaNs.
    #[must_use]
    pub fn bits_eq(self, other: Const) -> bool {
        match (self, other) {
            (Const::I(a), Const::I(b)) => a == b,
            (Const::F(a), Const::F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::I(v) => write!(f, "{v}"),
            Const::F(v) => write!(f, "{v:?}"),
        }
    }
}

impl From<i64> for Const {
    fn from(v: i64) -> Self {
        Const::I(v)
    }
}

impl From<f64> for Const {
    fn from(v: f64) -> Self {
        Const::F(v)
    }
}

/// A routine signature: parameter types and optional return type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Signature {
    /// Parameter scalar types, in order.
    pub params: Vec<Ty>,
    /// Return scalar type; `None` for procedures.
    pub ret: Option<Ty>,
}

impl Signature {
    /// Creates a signature from parts.
    #[must_use]
    pub fn new(params: Vec<Ty>, ret: Option<Ty>) -> Self {
        Signature { params, ret }
    }

    /// Number of parameters.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{p}")?;
        }
        f.write_str(")")?;
        if let Some(r) = self.ret {
            write!(f, " -> {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_ty_slots() {
        assert_eq!(VarTy::scalar(Ty::I64).slots(), 1);
        assert_eq!(VarTy::array(Ty::F64, 16).slots(), 16);
        assert!(VarTy::array(Ty::I64, 4).is_array());
    }

    #[test]
    fn const_zero_detection() {
        assert!(Const::I(0).is_zero());
        assert!(Const::F(0.0).is_zero());
        assert!(!Const::I(-1).is_zero());
    }

    #[test]
    fn const_bits_eq_distinguishes_nan_payloads() {
        let a = Const::F(f64::NAN);
        let b = Const::F(f64::NAN);
        assert!(a.bits_eq(b));
        assert!(!Const::I(1).bits_eq(Const::F(1.0)));
    }

    #[test]
    fn signature_display() {
        let sig = Signature::new(vec![Ty::I64, Ty::F64], Some(Ty::I64));
        assert_eq!(format!("{sig}"), "(i64, f64) -> i64");
        assert_eq!(format!("{}", Signature::default()), "()");
    }
}
