//! Program representation for the sentinel scheduling reproduction.
//!
//! Programs are [`Function`]s made of [`Block`]s laid out in program order.
//! A block here is an *extended* basic block: conditional branches may
//! appear anywhere inside it, each being a *side exit*; control falls
//! through past an untaken branch and off the end of the block into the
//! next block in layout order. This is exactly the paper's **superblock**
//! shape (§2.1): "a block of instructions in which control may only enter
//! from the top but may leave at one or more exit points", with
//! instructions placed sequentially so that everything after a conditional
//! branch is on the branch's fall-through path.
//!
//! The crate also provides
//!
//! * [`mod@cfg`] — control-flow graph over blocks,
//! * [`liveness`] — backward live-variable analysis (paper §2.1
//!   restriction (1) and §3.5 uninitialized-register handling),
//! * [`profile`] — execution profiles used by superblock formation,
//! * [`superblock`] — trace selection + tail duplication,
//! * [`ProgramBuilder`] — a programmatic assembler, and
//! * [`asm`] — a textual assembly parser/printer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod builder;
mod func;
mod validate;

pub mod asm;
pub mod cfg;
pub mod dominators;
pub mod examples;
pub mod liveness;
pub mod object;
pub mod profile;
pub mod regset;
pub mod superblock;

pub use block::Block;
pub use builder::ProgramBuilder;
pub use func::Function;
pub use validate::{validate, ValidateError};
