//! Window functions.
//!
//! The paper's hub provides "Partitioning sensor data into rectangular or
//! Hamming windows" (§3.6). [`WindowShape`] carries the taper and lives in
//! `sidewinder-mcu`, whose interpreter does the streaming partitioning;
//! this module re-exports it for host-side signal processing.

pub use sidewinder_mcu::window::WindowShape;
