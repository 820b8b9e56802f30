//! One driver per paper exhibit. Each `run` function returns typed rows;
//! `render()` produces the table the `exhibit` binary prints for it.
//! Integration tests assert the *shape* of every result (winners,
//! factors, crossovers) against the paper's claims.

pub mod ablations;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod tables;
