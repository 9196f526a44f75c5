//! The instruction set: operations, operands, and static properties.

use crate::reg::Reg;
use std::fmt;

/// Width of a memory access in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes (default).
    #[default]
    B8,
}

impl Width {
    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// Integer ALU operations. All arithmetic wraps; division by zero yields
/// `-1` (quotient) or the dividend (remainder), as in RISC-V, so no
/// instruction can fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (`/0 = -1`).
    Div,
    /// Signed remainder (`%0 = dividend`).
    Rem,
    /// Set if less-than, signed (result 0 or 1).
    Slt,
    /// Set if less-than, unsigned (result 0 or 1).
    Sltu,
}

impl AluOp {
    /// Every operation, in declaration order.
    pub const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::Slt,
        AluOp::Sltu,
    ];

    /// Execution latency in cycles for the out-of-order model.
    pub const fn latency(self) -> u32 {
        match self {
            AluOp::Mul => 3,
            AluOp::Div | AluOp::Rem => 12,
            _ => 1,
        }
    }

    /// Applies the operation to two i64 operands.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 0x3f) as u32),
            AluOp::Shr => ((a as u64).wrapping_shr((b & 0x3f) as u32)) as i64,
            AluOp::Sar => a.wrapping_shr((b & 0x3f) as u32),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    -1
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::Slt => i64::from(a < b),
            AluOp::Sltu => i64::from((a as u64) < (b as u64)),
        }
    }

    /// Mnemonic used by the assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Branch conditions, comparing two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Taken if `a == b`.
    Eq,
    /// Taken if `a != b`.
    Ne,
    /// Taken if `a < b` (signed).
    Lt,
    /// Taken if `a >= b` (signed).
    Ge,
    /// Taken if `a < b` (unsigned).
    Ltu,
    /// Taken if `a >= b` (unsigned).
    Geu,
}

impl Cond {
    /// Evaluates the condition on two operand values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
            Cond::Ltu => (a as u64) < (b as u64),
            Cond::Geu => (a as u64) >= (b as u64),
        }
    }

    /// Mnemonic used by the assembler (`beq`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        }
    }
}

/// The second operand of an ALU instruction: a register or a small
/// immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i32),
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(i) => write!(f, "{i}"),
        }
    }
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Self {
        Src::Reg(r)
    }
}

impl From<i32> for Src {
    fn from(i: i32) -> Self {
        Src::Imm(i)
    }
}

/// A machine operation. Branch and jump targets are instruction indices
/// into the owning [`Program`](crate::Program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// No operation.
    Nop,
    /// Stops execution; the architectural end of the program.
    Halt,
    /// `dst = value` (full 64-bit immediate).
    Imm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = op(a, b)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source operand.
        b: Src,
    },
    /// `dst = MEM[R[base] + offset]`.
    Load {
        /// Access width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// `MEM[R[base] + offset] = src`.
    Store {
        /// Access width.
        width: Width,
        /// Data register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Conditional branch: if `cond(a, b)` then `pc = target` else fall
    /// through.
    Branch {
        /// Condition.
        cond: Cond,
        /// First comparison register.
        a: Reg,
        /// Second comparison register.
        b: Reg,
        /// Instruction index when taken.
        target: usize,
    },
    /// Unconditional jump to an instruction index.
    Jump {
        /// Instruction index.
        target: usize,
    },
    /// Indirect jump: `pc = R[base]` interpreted as an instruction index.
    JumpReg {
        /// Register holding the target instruction index.
        base: Reg,
    },
    /// Call: `R[LINK] = pc + 1; pc = target`. The front-end pushes the
    /// return address onto its return-address stack.
    Call {
        /// Instruction index of the callee.
        target: usize,
    },
    /// Return: `pc = R[LINK]`, predicted by the return-address stack.
    Ret,
}

/// The link register written by [`Op::Call`] and read by [`Op::Ret`]
/// (`r31`, as in common RISC ABIs).
pub const LINK_REG: Reg = Reg::LINK;

/// The registers an operation reads, in operand order: at most two,
/// held inline so decoding a source list, or renaming it with
/// [`map`](Self::map), allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcRegs<R = Reg> {
    /// Unused slots hold `R::default()`, so equality compares the live
    /// prefix.
    regs: [R; 2],
    len: u8,
}

impl<R: Copy + Default> SrcRegs<R> {
    fn of(regs: &[R]) -> Self {
        let mut s = Self::default();
        s.regs[..regs.len()].copy_from_slice(regs);
        s.len = regs.len() as u8;
        s
    }

    /// The registers as a slice.
    pub fn as_slice(&self) -> &[R] {
        &self.regs[..self.len as usize]
    }

    /// The list with `f` applied to each register, in order.
    pub fn map<S: Copy + Default>(&self, mut f: impl FnMut(R) -> S) -> SrcRegs<S> {
        let mut out = SrcRegs {
            regs: [S::default(); 2],
            len: self.len,
        };
        for (o, &r) in out.regs.iter_mut().zip(self.as_slice()) {
            *o = f(r);
        }
        out
    }
}

impl Op {
    /// The register this operation writes, if any. `r0` destinations are
    /// reported (the writeback stage discards them).
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Op::Imm { dst, .. } | Op::Alu { dst, .. } | Op::Load { dst, .. } => Some(dst),
            Op::Call { .. } => Some(LINK_REG),
            _ => None,
        }
    }

    /// The registers this operation reads, in operand order.
    pub fn srcs(&self) -> SrcRegs {
        match *self {
            Op::Alu {
                a, b: Src::Reg(b), ..
            }
            | Op::Branch { a, b, .. } => SrcRegs::of(&[a, b]),
            Op::Store { src, base, .. } => SrcRegs::of(&[src, base]),
            Op::Alu { a, .. } | Op::Load { base: a, .. } | Op::JumpReg { base: a } => {
                SrcRegs::of(&[a])
            }
            Op::Ret => SrcRegs::of(&[LINK_REG]),
            _ => SrcRegs::default(),
        }
    }

    /// Whether this is a memory load.
    pub fn is_load(&self) -> bool {
        matches!(self, Op::Load { .. })
    }

    /// Whether this is a memory store.
    pub fn is_store(&self) -> bool {
        matches!(self, Op::Store { .. })
    }

    /// Whether this operation redirects control flow (conditionally or
    /// not).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Op::Branch { .. } | Op::Jump { .. } | Op::JumpReg { .. }
        )
    }

    /// Whether this operation's direction must be predicted (conditional
    /// branches and indirect jumps; direct jumps are statically known).
    pub fn is_predicted_control(&self) -> bool {
        matches!(self, Op::Branch { .. } | Op::JumpReg { .. } | Op::Ret)
    }

    /// Execution latency in cycles (memory operations report their
    /// address-generation latency; the cache adds the rest).
    pub fn latency(&self) -> u32 {
        match self {
            Op::Alu { op, .. } => op.latency(),
            _ => 1,
        }
    }
}

/// A static instruction: an operation plus its program counter.
///
/// The PC doubles as the index into the program's instruction vector and
/// (shifted) as the predictor-visible address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Instruction index in the program.
    pub pc: usize,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// The address form of the PC used by PC-indexed predictors. Each
    /// instruction occupies 4 bytes in this address space, like a fixed
    /// width RISC encoding.
    pub fn pc_addr(&self) -> u64 {
        (self.pc as u64) << 2
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Nop => write!(f, "nop"),
            Op::Halt => write!(f, "halt"),
            Op::Imm { dst, value } => write!(f, "imm {dst}, {value}"),
            Op::Alu { op, dst, a, b } => write!(f, "{} {dst}, {a}, {b}", op.mnemonic()),
            Op::Load {
                width,
                dst,
                base,
                offset,
            } => write!(f, "load{width} {dst}, [{base}{offset:+}]"),
            Op::Store {
                width,
                src,
                base,
                offset,
            } => write!(f, "store{width} {src}, [{base}{offset:+}]"),
            Op::Branch { cond, a, b, target } => {
                write!(f, "{} {a}, {b}, @{target}", cond.mnemonic())
            }
            Op::Jump { target } => write!(f, "jmp @{target}"),
            Op::JumpReg { base } => write!(f, "jr {base}"),
            Op::Call { target } => write!(f, "call @{target}"),
            Op::Ret => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), -1);
        assert_eq!(AluOp::Mul.apply(i64::MAX, 2), -2); // wrapping
        assert_eq!(AluOp::Div.apply(7, 2), 3);
        assert_eq!(AluOp::Div.apply(7, 0), -1);
        assert_eq!(AluOp::Rem.apply(7, 0), 7);
        assert_eq!(AluOp::Slt.apply(-1, 0), 1);
        assert_eq!(AluOp::Sltu.apply(-1, 0), 0); // -1 is u64::MAX
        assert_eq!(AluOp::Shl.apply(1, 65), 2); // shift amount masked
        assert_eq!(AluOp::Shr.apply(-1, 63), 1);
        assert_eq!(AluOp::Sar.apply(-8, 1), -4);
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.eval(1, 1));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Lt.eval(-1, 0));
        assert!(!Cond::Ltu.eval(-1, 0));
        assert!(Cond::Ge.eval(0, 0));
        assert!(Cond::Geu.eval(-1, 0));
    }

    #[test]
    fn alu_op_list_follows_the_declaration() {
        for (i, op) in AluOp::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "{op:?}");
        }
        assert_eq!(AluOp::ALL.len(), AluOp::Sltu as usize + 1);
    }

    #[test]
    fn op_dst_and_srcs() {
        let r1 = Reg::new(1);
        let r2 = Reg::new(2);
        let load = Op::Load {
            width: Width::B8,
            dst: r1,
            base: r2,
            offset: 8,
        };
        assert_eq!(load.dst(), Some(r1));
        assert_eq!(load.srcs().as_slice(), [r2]);
        assert!(load.is_load());

        let alu = Op::Alu {
            op: AluOp::Add,
            dst: r1,
            a: r1,
            b: Src::Imm(1),
        };
        assert_eq!(alu.srcs().as_slice(), [r1]);

        let store = Op::Store {
            width: Width::B8,
            src: r1,
            base: r2,
            offset: 0,
        };
        assert_eq!(store.dst(), None);
        assert_eq!(store.srcs().as_slice(), [r1, r2]);
        // Renaming keeps the operand order and the length.
        let renamed = store.srcs().map(|r| r.index() as u16 + 40);
        assert_eq!(renamed.as_slice(), [41, 42]);
        assert_eq!(alu.srcs().map(|r| r.index()).as_slice(), [1]);
        assert!(Op::Halt.srcs().map(|r| r.index()).as_slice().is_empty());
    }

    #[test]
    fn control_classification() {
        let br = Op::Branch {
            cond: Cond::Eq,
            a: Reg::ZERO,
            b: Reg::ZERO,
            target: 0,
        };
        assert!(br.is_control());
        assert!(br.is_predicted_control());
        let jmp = Op::Jump { target: 3 };
        assert!(jmp.is_control());
        assert!(!jmp.is_predicted_control());
        assert!(!Op::Nop.is_control());
    }

    #[test]
    fn latencies() {
        assert_eq!(Op::Nop.latency(), 1);
        assert_eq!(
            Op::Alu {
                op: AluOp::Div,
                dst: Reg::ZERO,
                a: Reg::ZERO,
                b: Src::Imm(0)
            }
            .latency(),
            12
        );
    }

    #[test]
    fn display_forms() {
        let r1 = Reg::new(1);
        let op = Op::Load {
            width: Width::B8,
            dst: r1,
            base: Reg::new(2),
            offset: -8,
        };
        assert_eq!(op.to_string(), "load8 r1, [r2-8]");
        assert_eq!(Op::Halt.to_string(), "halt");
    }

    #[test]
    fn pc_addr_is_word_aligned() {
        let inst = Inst { pc: 3, op: Op::Nop };
        assert_eq!(inst.pc_addr(), 12);
    }
}
