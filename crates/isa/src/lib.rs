//! A small RISC-like ISA for the Doppelganger Loads simulator.
//!
//! The paper evaluates on SPEC binaries running under gem5. This
//! reproduction replaces that substrate with a compact load/store ISA that
//! is rich enough to express the memory- and control-behaviour classes the
//! evaluation depends on (dependent loads, pointer chasing, streaming,
//! data-dependent branches) while staying simple enough to simulate at
//! cycle granularity.
//!
//! The crate provides:
//!
//! * [`Inst`]/[`Op`] — the instruction set,
//! * [`Program`] — a validated sequence of instructions,
//! * [`ProgramBuilder`] — an ergonomic builder with label resolution,
//! * [`asm::assemble`] — a text assembler for `.dasm` sources,
//! * [`SparseMemory`] — byte-addressable sparse data memory,
//! * [`Emulator`] — the architectural golden model every timing
//!   configuration is validated against,
//! * [`hash`] — FNV-1a-64, the one content hash.
//!
//! # Examples
//!
//! ```
//! use dgl_isa::{Emulator, ProgramBuilder, Reg, SparseMemory};
//!
//! let r1 = Reg::new(1);
//! let r2 = Reg::new(2);
//! let mut b = ProgramBuilder::new("sum");
//! b.imm(r1, 0)
//!     .imm(r2, 5)
//!     .label("loop")
//!     .add(r1, r1, r2)
//!     .subi(r2, r2, 1)
//!     .bne(r2, Reg::ZERO, "loop")
//!     .halt();
//! let program = b.build()?;
//!
//! let mut emu = Emulator::new(&program, SparseMemory::new());
//! let result = emu.run(1_000)?;
//! assert_eq!(emu.reg(r1), 15);
//! assert!(result.halted);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod emu;
pub mod hash;
pub mod inst;
pub mod memory;
pub mod program;
pub mod reg;

pub use builder::{BuildError, ProgramBuilder};
pub use emu::{ArchEvent, Checkpoint, EmuError, Emulator, RunResult};
pub use inst::{AluOp, Cond, Inst, Op, Src, SrcRegs, Width};
pub use memory::SparseMemory;
pub use program::Program;
pub use reg::Reg;
