//! An in-memory writer for experiment reports.

use std::io::{self, Write};

/// Buffers the bytes an experiment writes — what callers that drive
/// [`Experiment::run`](crate::registry::Experiment::run) one experiment
/// at a time hold a report in.
#[derive(Default)]
pub struct VecSink {
    buf: Vec<u8>,
}

impl VecSink {
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The bytes written since construction (or the last `take`).
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

impl Write for VecSink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.write(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
