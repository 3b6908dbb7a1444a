//! The workspace's one byte codec. A [`Field`] is a value with a
//! binary form and a [`Reader`] decodes it. The codec gives a
//! [`Program`] its binary form ([`Program::to_bytes`]), so that a warm
//! run decodes a compiled program instead of recompiling it, and the
//! suite image encodes every payload with it.
//!
//! Integers are little-endian. A list or a string is a `u32` count
//! followed by its elements. Decoding is total: every read is
//! bounds-checked, a count may not promise more elements than the bytes
//! left can hold, and malformed bytes decode to `None`, never a panic.

use crate::function::{Block, BranchRef, FuncId, Function, GlobalSym, Program};
use crate::instr::{BinOp, BlockId, Cond, FBinOp, FCmp, Instr, Terminator};
use crate::reg::{FReg, Reg};

impl Program {
    /// The program's binary form. Integers are little-endian. A program
    /// is its global region size (`i64`), its symbols sorted by name
    /// (name, offset, length, float flag), and its functions. A function
    /// is its name, its integer and float register counts (`u32`), its
    /// frame size (`i64`), its integer and float parameters, and its
    /// blocks, each a list of instructions and a terminator. Every
    /// [`Instr`], [`Terminator`] and [`Cond`] variant is one tag byte
    /// followed by its fields in declaration order; an operator is one
    /// index byte, an `f64` immediate is its bits, an absent register is
    /// `u32::MAX`, and a string or a list is a `u32` count followed by
    /// its elements. Equal programs encode to equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut symbols: Vec<(String, GlobalSym)> = self
            .symbols()
            .iter()
            .map(|(name, sym)| (name.clone(), *sym))
            .collect();
        symbols.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::new();
        self.globals_words().put(&mut out);
        symbols.put(&mut out);
        put_list(self.funcs(), &mut out);
        out
    }

    /// Decodes [`Program::to_bytes`]'s output. Any other byte string is
    /// `None`, never a panic: every read is bounds-checked, every count
    /// is bounded by the bytes left, unknown tags and trailing bytes are
    /// refused, and the program must pass [`Program::validate`] and the
    /// symbol range check of [`ProgramBuilder::finish`].
    ///
    /// [`ProgramBuilder::finish`]: crate::ProgramBuilder::finish
    pub fn from_bytes(bytes: &[u8]) -> Option<Program> {
        let mut r = Reader::new(bytes);
        let globals_words = i64::get(&mut r)?;
        let symbols: Vec<(String, GlobalSym)> = Field::get(&mut r)?;
        let funcs = Field::get(&mut r)?;
        if !r.is_empty() || !symbols.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        let program = Program::new(funcs, globals_words).ok()?;
        program.with_symbols(symbols.into_iter().collect()).ok()
    }
}

/// The bytes still to decode.
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader(bytes)
    }

    /// The next `n` bytes, borrowed, or `None` if fewer are left.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    /// The next byte string ([`put_bytes`]), borrowed.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = u32::get(self)? as usize;
        self.take(n)
    }

    /// How many bytes are left.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is every byte read?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A value with a binary form.
pub trait Field: Sized {
    /// The fewest bytes a value encodes to: a list's count may not
    /// exceed the bytes left over this.
    const MIN_BYTES: usize;
    /// Appends the value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value, or `None` if the bytes are not one.
    fn get(r: &mut Reader<'_>) -> Option<Self>;
}

macro_rules! little_endian {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Option<$ty> {
                Some(<$ty>::from_le_bytes(r.take(Self::MIN_BYTES)?.try_into().ok()?))
            }
        }
    )*};
}

little_endian!(u8, u32, u64, i64);

/// Registers and ids are their `u32` index.
macro_rules! index {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            const MIN_BYTES: usize = 4;
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }
            fn get(r: &mut Reader<'_>) -> Option<$ty> {
                u32::get(r).map($ty)
            }
        }
    )*};
}

index!(Reg, FReg, FuncId, BlockId);

/// An absent register is `u32::MAX`.
macro_rules! optional {
    ($($ty:ident),*) => {$(
        impl Field for Option<$ty> {
            const MIN_BYTES: usize = 4;
            fn put(&self, out: &mut Vec<u8>) {
                self.map_or(u32::MAX, |v| v.0).put(out);
            }
            fn get(r: &mut Reader<'_>) -> Option<Option<$ty>> {
                u32::get(r).map(|v| (v != u32::MAX).then_some($ty(v)))
            }
        }
    )*};
}

optional!(Reg, FReg);

impl Field for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<f64> {
        u64::get(r).map(f64::from_bits)
    }
}

impl Field for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<bool> {
        match u8::get(r)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// A list: its `u32` count, then each item.
pub fn put_list<T: Field>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).put(out);
    for item in items {
        item.put(out);
    }
}

/// A byte string: the list form of `bytes`, written in one copy.
/// [`Reader::bytes`] reads it back without one.
pub fn put_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    (bytes.len() as u32).put(out);
    out.extend_from_slice(bytes);
}

impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_list(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Vec<T>> {
        let n = u32::get(r)? as usize;
        if n > r.0.len() / T::MIN_BYTES {
            return None;
        }
        (0..n).map(|_| T::get(r)).collect()
    }
}

impl Field for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(self.as_bytes(), out);
    }
    fn get(r: &mut Reader<'_>) -> Option<String> {
        std::str::from_utf8(r.bytes()?).ok().map(str::to_owned)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<(A, B)> {
        Some((A::get(r)?, B::get(r)?))
    }
}

impl Field for BranchRef {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.func.put(out);
        self.block.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<BranchRef> {
        Some(BranchRef {
            func: Field::get(r)?,
            block: Field::get(r)?,
        })
    }
}

impl Field for GlobalSym {
    const MIN_BYTES: usize = 17;
    fn put(&self, out: &mut Vec<u8>) {
        self.offset.put(out);
        self.len.put(out);
        self.is_float.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<GlobalSym> {
        Some(GlobalSym {
            offset: Field::get(r)?,
            len: Field::get(r)?,
            is_float: Field::get(r)?,
        })
    }
}

impl Field for Function {
    const MIN_BYTES: usize = 32;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(self.name().as_bytes(), out);
        self.n_regs().put(out);
        self.n_fregs().put(out);
        self.frame_words().put(out);
        put_list(self.params(), out);
        put_list(self.fparams(), out);
        put_list(self.blocks(), out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Function> {
        let name = String::get(r)?;
        let n_regs = u32::get(r)?;
        let n_fregs = u32::get(r)?;
        let frame_words = i64::get(r)?;
        let params = Field::get(r)?;
        let fparams = Field::get(r)?;
        let blocks = Field::get(r)?;
        Some(Function::assemble(
            name,
            blocks,
            params,
            fparams,
            n_regs,
            n_fregs,
            frame_words,
        ))
    }
}

impl Field for Block {
    const MIN_BYTES: usize = 4 + Terminator::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.instrs.put(out);
        self.term.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Block> {
        Some(Block {
            instrs: Field::get(r)?,
            term: Field::get(r)?,
        })
    }
}

/// An enum as one tag byte per variant, then the variant's fields in
/// the order listed (`0: r` names a tuple variant's field). The one
/// table drives both directions.
macro_rules! tagged {
    ($ty:ident, $min:expr; $($tag:literal => $variant:ident { $($field:tt: $bind:ident),* })*) => {
        impl Field for $ty {
            const MIN_BYTES: usize = $min;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant { $($field: $bind),* } => {
                        out.push($tag);
                        $($bind.put(out);)*
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Option<$ty> {
                Some(match u8::get(r)? {
                    $($tag => $ty::$variant { $($field: Field::get(r)?),* },)*
                    _ => return None,
                })
            }
        }
    };
}

tagged! { BinOp, 1;
    0 => Add {} 1 => Sub {} 2 => Mul {} 3 => Div {} 4 => Rem {} 5 => And {}
    6 => Or {} 7 => Xor {} 8 => Sll {} 9 => Srl {} 10 => Sra {} 11 => Slt {}
    12 => Sle {} 13 => Seq {} 14 => Sne {}
}

tagged! { FBinOp, 1; 0 => Add {} 1 => Sub {} 2 => Mul {} 3 => Div {} }

tagged! { FCmp, 1; 0 => Eq {} 1 => Lt {} 2 => Le {} }

tagged! { Cond, 1;
    0 => Eqz { 0: r } 1 => Nez { 0: r } 2 => Lez { 0: r } 3 => Ltz { 0: r }
    4 => Gez { 0: r } 5 => Gtz { 0: r } 6 => Eq { 0: a, 1: b } 7 => Ne { 0: a, 1: b }
    8 => FTrue {} 9 => FFalse {}
}

tagged! { Terminator, 5;
    0 => Jump { 0: to }
    1 => Branch { cond: cond, taken: taken, fallthru: fallthru }
    2 => Ret { val: val, fval: fval }
}

tagged! { Instr, 9;
    0 => Li { rd: rd, imm: imm }
    1 => Move { rd: rd, rs: rs }
    2 => Bin { op: op, rd: rd, rs: rs, rt: rt }
    3 => BinImm { op: op, rd: rd, rs: rs, imm: imm }
    4 => LiF { fd: fd, imm: imm }
    5 => MoveF { fd: fd, fs: fs }
    6 => BinF { op: op, fd: fd, fs: fs, ft: ft }
    7 => CvtIF { fd: fd, rs: rs }
    8 => CvtFI { rd: rd, fs: fs }
    9 => CmpF { cmp: cmp, fs: fs, ft: ft }
    10 => Load { rd: rd, base: base, offset: offset }
    11 => Store { rs: rs, base: base, offset: offset }
    12 => LoadF { fd: fd, base: base, offset: offset }
    13 => StoreF { fs: fs, base: base, offset: offset }
    14 => Alloc { rd: rd, size: size }
    15 => Call { callee: callee, args: args, fargs: fargs, ret: ret, fret: fret }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ret() -> Terminator {
        Terminator::Ret {
            val: None,
            fval: None,
        }
    }

    /// The bytes of a one-function program whose entry jumps to `target`
    /// with `params`, written field by field so that they need not be
    /// valid.
    fn one_function(target: u32, params: Vec<Reg>) -> Vec<u8> {
        let blocks = vec![
            Block {
                instrs: vec![Instr::Li {
                    rd: Reg::temp(0),
                    imm: -7,
                }],
                term: Terminator::Jump(BlockId(target)),
            },
            Block {
                instrs: vec![],
                term: ret(),
            },
        ];
        let main = Function::assemble("main".into(), blocks, params, vec![], 4, 0, 2);
        let mut out = Vec::new();
        1i64.put(&mut out);
        vec![(
            "n".to_string(),
            GlobalSym {
                offset: 0,
                len: 1,
                is_float: false,
            },
        )]
        .put(&mut out);
        vec![main].put(&mut out);
        out
    }

    #[test]
    fn valid_bytes_round_trip() {
        let bytes = one_function(1, vec![Reg::temp(0)]);
        let p = Program::from_bytes(&bytes).expect("valid");
        assert_eq!(p.to_bytes(), bytes);
        assert_eq!(p.symbol("n").map(|s| s.len), Some(1));
    }

    #[test]
    fn refuses_a_block_target_past_the_end() {
        assert!(Program::from_bytes(&one_function(2, vec![])).is_none());
    }

    #[test]
    fn refuses_a_parameter_outside_the_register_file() {
        assert!(Program::from_bytes(&one_function(1, vec![Reg(4)])).is_none());
    }

    #[test]
    fn refuses_a_count_larger_than_the_payload() {
        let mut bytes = one_function(1, vec![]);
        // The function count follows the globals size and the symbols.
        let at = 8 + 4 + (4 + 1 + GlobalSym::MIN_BYTES);
        assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes());
        bytes[at] = 2;
        assert!(Program::from_bytes(&bytes).is_none());
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Program::from_bytes(&bytes).is_none());
    }

    #[test]
    fn refuses_unknown_tags() {
        assert!(Instr::get(&mut Reader(&[16; 32])).is_none());
        assert!(Terminator::get(&mut Reader(&[3; 32])).is_none());
        assert!(Cond::get(&mut Reader(&[10; 32])).is_none());
        assert!(BinOp::get(&mut Reader(&[15])).is_none());
        assert!(bool::get(&mut Reader(&[2])).is_none());
    }

    #[test]
    fn refuses_a_trailing_byte() {
        let mut bytes = one_function(1, vec![]);
        assert!(Program::from_bytes(&bytes).is_some());
        bytes.push(0);
        assert!(Program::from_bytes(&bytes).is_none());
    }

    #[test]
    fn every_truncation_is_refused() {
        let bytes = one_function(1, vec![]);
        for len in 0..bytes.len() {
            assert!(Program::from_bytes(&bytes[..len]).is_none(), "{len}");
        }
    }
}
