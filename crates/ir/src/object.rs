//! IL object files.
//!
//! In CMO mode the frontends "dump the IL directly to object files that
//! correspond to the source modules being compiled" (§3); the linker
//! recognizes these IL objects and routes them through the optimizer.
//! Keeping all persistent information in ordinary object files — rather
//! than a program database — is what makes the framework compatible
//! with `make`-style build processes (§6.1).

use crate::ids::Sym;
use crate::intern::Interner;
use crate::module::{Linkage, ModuleSymbols};
use crate::relocs::{
    capacity, decode_body, decode_sig, decode_symbols, encode_body, encode_sig, encode_symbols,
};
use crate::routine::RoutineBody;
use crate::types::Signature;
use cmo_naim::{DecodeError, Decoder, Encoder};
use std::error::Error;
use std::fmt;

/// Magic bytes identifying an IL-bearing object file.
pub const IL_MAGIC: &[u8; 8] = b"CMOIL01\0";

/// One routine definition inside an IL object.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineDef {
    /// Routine name, in the object's own string table.
    pub name: Sym,
    /// Signature.
    pub sig: Signature,
    /// Visibility.
    pub linkage: Linkage,
    /// Source lines the routine spans.
    pub source_lines: u32,
    /// The IL body, with name-based external references.
    pub body: RoutineBody,
}

/// An object file carrying IL for one source module.
///
/// All symbol references inside the bodies are [`Sym`]s in the object's
/// *own* string table ([`IlObject::strings`]); IL linking re-interns
/// them into the program interner and resolves them to ids.
#[derive(Debug, Clone, Default)]
pub struct IlObject {
    /// Module name.
    pub module_name: String,
    /// Source language tag ("mlc", "c", "f77", ...).
    pub language: &'static str,
    /// The object's private string table.
    pub strings: Interner,
    /// Global variable definitions (the future module symbol table).
    pub symbols: ModuleSymbols,
    /// Routine definitions.
    pub routines: Vec<RoutineDef>,
    /// Total source lines of the module.
    pub source_lines: u32,
}

/// Error decoding an object file image.
#[derive(Debug)]
pub enum ObjectDecodeError {
    /// The image does not begin with [`IL_MAGIC`].
    NotAnIlObject,
    /// The payload is corrupt.
    Decode(DecodeError),
}

impl fmt::Display for ObjectDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectDecodeError::NotAnIlObject => f.write_str("missing IL object magic"),
            ObjectDecodeError::Decode(e) => write!(f, "corrupt IL object: {e}"),
        }
    }
}

impl Error for ObjectDecodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ObjectDecodeError::Decode(e) => Some(e),
            ObjectDecodeError::NotAnIlObject => None,
        }
    }
}

fn corrupt(what: &'static str) -> ObjectDecodeError {
    ObjectDecodeError::Decode(DecodeError::Corrupt { what })
}

impl From<DecodeError> for ObjectDecodeError {
    fn from(e: DecodeError) -> Self {
        ObjectDecodeError::Decode(e)
    }
}

impl IlObject {
    /// Total IL instructions across all routines.
    #[must_use]
    pub fn il_size(&self) -> usize {
        self.routines.iter().map(|r| r.body.instr_count()).sum()
    }

    /// Serializes to the object-file byte format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(1024);
        for &b in IL_MAGIC {
            enc.write_u8(b);
        }
        enc.write_str(&self.module_name);
        enc.write_str(self.language);
        enc.write_u32(self.source_lines);
        enc.write_usize(self.strings.len());
        for (_, s) in self.strings.iter() {
            enc.write_str(s);
        }
        encode_symbols(&self.symbols, &mut enc);
        enc.write_usize(self.routines.len());
        for r in &self.routines {
            enc.write_u32(r.name.0);
            encode_sig(&r.sig, &mut enc);
            enc.write_u8(match r.linkage {
                Linkage::Export => 0,
                Linkage::Internal => 1,
            });
            enc.write_u32(r.source_lines);
            encode_body(&r.body, &mut enc);
        }
        enc.into_bytes()
    }

    /// Deserializes from the object-file byte format.
    ///
    /// # Errors
    ///
    /// Returns [`ObjectDecodeError::NotAnIlObject`] if the magic is
    /// missing (the file is a pre-compiled machine object, §3), or a
    /// decode error for corrupt payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ObjectDecodeError> {
        if bytes.len() < IL_MAGIC.len() || &bytes[..IL_MAGIC.len()] != IL_MAGIC {
            return Err(ObjectDecodeError::NotAnIlObject);
        }
        let mut dec = Decoder::new(&bytes[IL_MAGIC.len()..]);
        let module_name = dec.read_str()?.to_owned();
        let language = match dec.read_str()? {
            "mlc" => "mlc",
            "c" => "c",
            "f77" => "f77",
            "c++" => "c++",
            _ => "unknown",
        };
        let source_lines = dec.read_u32()?;
        let n_strings = dec.read_usize()?;
        let mut strings = Interner::new();
        for _ in 0..n_strings {
            let s = dec.read_str()?;
            strings.intern(s);
        }
        let symbols = decode_symbols(&mut dec)?;
        let named = |sym: Sym| sym.index() < strings.len();
        if !symbols.globals.iter().all(|g| named(g.name)) {
            return Err(corrupt("global name out of range"));
        }
        let n_routines = dec.read_usize()?;
        // A routine is at least a name, a signature, a linkage, a line
        // count and a body header: nine bytes.
        let mut routines = Vec::with_capacity(capacity(&dec, n_routines, 9));
        for _ in 0..n_routines {
            let name = Sym(dec.read_u32()?);
            if !named(name) {
                return Err(corrupt("routine name out of range"));
            }
            let sig = decode_sig(&mut dec)?;
            let linkage = match dec.read_u8()? {
                0 => Linkage::Export,
                1 => Linkage::Internal,
                tag => {
                    return Err(DecodeError::BadTag {
                        tag,
                        offset: dec.position(),
                    }
                    .into())
                }
            };
            let source_lines = dec.read_u32()?;
            let body = decode_body(&mut dec)?;
            routines.push(RoutineDef {
                name,
                sig,
                linkage,
                source_lines,
                body,
            });
        }
        Ok(IlObject {
            module_name,
            language,
            strings,
            symbols,
            routines,
            source_lines,
        })
    }

    /// Returns `true` if `bytes` carries an IL payload (vs. a
    /// pre-compiled machine object).
    #[must_use]
    pub fn is_il_object(bytes: &[u8]) -> bool {
        bytes.len() >= IL_MAGIC.len() && &bytes[..IL_MAGIC.len()] == IL_MAGIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IlObjectBuilder;
    use crate::types::Ty;

    fn sample_object() -> IlObject {
        let mut b = IlObjectBuilder::new("sample");
        let mut f = b.routine("double_it", Signature::new(vec![Ty::I64], Some(Ty::I64)));
        let p = f.param(0);
        let x = f.load_local(p);
        let two = f.const_i64(2);
        let r = f.bin(crate::BinOp::Mul, x, two);
        f.ret(Some(r));
        f.finish();
        b.finish()
    }

    #[test]
    fn object_round_trips_through_bytes() {
        let obj = sample_object();
        let bytes = obj.to_bytes();
        assert!(IlObject::is_il_object(&bytes));
        let back = IlObject::from_bytes(&bytes).unwrap();
        assert_eq!(back.module_name, "sample");
        assert_eq!(back.routines.len(), 1);
        assert_eq!(back.routines[0].body, obj.routines[0].body);
        assert_eq!(back.il_size(), obj.il_size());
    }

    #[test]
    fn non_il_bytes_are_recognized() {
        assert!(!IlObject::is_il_object(b"\x7fELF..."));
        assert!(matches!(
            IlObject::from_bytes(b"\x7fELF..."),
            Err(ObjectDecodeError::NotAnIlObject)
        ));
    }

    #[test]
    fn truncated_object_reports_decode_error() {
        let obj = sample_object();
        let mut bytes = obj.to_bytes();
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(
            IlObject::from_bytes(&bytes),
            Err(ObjectDecodeError::Decode(_))
        ));
    }
}
