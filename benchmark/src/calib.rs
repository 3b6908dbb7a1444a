//! The calibration kernel: a fixed piece of work that belongs to the
//! benchmark, not to the code under test, timed right before and right
//! after every set-up and every rep.
//!
//! On the shared reference host the machine's speed drifts by a third
//! within a minute. CPU time drifts with it, so it is no escape. A rep's
//! wall-clock divided by the kernel's time beside it cancels most of the
//! drift; multiplied by [`REFERENCE_S`] it reads as seconds at the
//! reference box's usual speed.
//!
//! The kernel runs in a child process (`benchmark kernel`): it allocates
//! 16 MiB, and a child's peak RSS starts from its parent's, so the
//! process that spawns the measured reps must stay small.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The first argument that makes the benchmark binary run the kernel once
/// and print its seconds.
pub const CHILD: &str = "kernel";

/// About the kernel's median time on the reference box (2 vCPU Xeon)
/// over the runs recorded in `README.md`.
pub const REFERENCE_S: f64 = 0.3;

/// Seconds one run of the kernel takes now, timed inside a child.
pub fn kernel_s() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(&exe)
        .arg(CHILD)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let printed = String::from_utf8_lossy(&out.stdout);
    match printed.trim().parse() {
        Ok(s) if out.status.success() => Ok(s),
        _ => Err(format!("the calibration kernel ended {}", out.status)),
    }
}

/// Runs the kernel once in this process and prints its seconds.
pub fn child() -> Result<(), String> {
    let start = Instant::now();
    black_box(dispatch(black_box(25_000_000)));
    black_box(stream(black_box(1 << 17), black_box(500)));
    black_box(chase(black_box(1 << 22), black_box(1_000_000)));
    println!("{}", start.elapsed().as_secs_f64());
    Ok(())
}

/// Calls `step(i)` for `i` = 0, 1, … while `more(i)` holds, and at least
/// once. Times `kernel` before the first call and after each, and returns
/// every result with the mean of the two kernel times around it.
pub fn bracketed<T>(
    mut kernel: impl FnMut() -> Result<f64, String>,
    mut more: impl FnMut(usize) -> bool,
    mut step: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<(T, f64)>, String> {
    let mut before = kernel()?;
    let mut out = Vec::new();
    while out.is_empty() || more(out.len()) {
        let result = step(out.len())?;
        let after = kernel()?;
        out.push((result, (before + after) / 2.0));
        before = after;
    }
    Ok(out)
}

/// `seconds` measured beside a kernel run of `kernel_s`, at the
/// reference speed.
pub fn scaled(seconds: f64, kernel_s: f64) -> f64 {
    seconds * REFERENCE_S / kernel_s
}

/// An interpreter-shaped loop: a data-dependent dispatch over a small
/// code array, with taken and untaken jumps.
fn dispatch(steps: u64) -> u64 {
    let code: Vec<u8> = (0..256u32).map(|i| ((i * 37 + 11) % 7) as u8).collect();
    let mut regs = [1u64; 8];
    let mut pc = 0usize;
    for _ in 0..steps {
        let r = pc & 7;
        match code[pc] {
            0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 7]),
            1 => regs[r] ^= regs[(r + 3) & 7] >> 3,
            2 => regs[r] = regs[r].wrapping_mul(0x9e37_79b9),
            3 if regs[r] & 1 == 0 => pc = (pc + 5) & 255,
            4 => regs[r] = regs[r].rotate_left(7),
            5 if regs[r] & 4 == 0 => pc = (pc + 3) & 255,
            3 | 5 => {}
            _ => regs[r] = regs[r].wrapping_sub(pc as u64),
        }
        pc = (pc + 1) & 255;
    }
    regs.iter().fold(0, |a, &r| a ^ r)
}

/// A float accumulation over 1 MiB of input, the shape of the ordering
/// studies' partial sums.
fn stream(len: usize, passes: usize) -> f64 {
    let input: Vec<f64> = (0..len).map(|i| (i % 97) as f64 * 0.5).collect();
    let mut sums = vec![0.0f64; len];
    for _ in 0..passes {
        for (s, x) in sums.iter_mut().zip(&input) {
            *s += *x;
        }
    }
    sums.iter().sum()
}

/// A dependent random walk over 16 MiB, beyond the caches: memory
/// latency, which the host's other tenants contend for.
fn chase(words: usize, steps: u64) -> u32 {
    // One cycle through every slot (Sattolo's shuffle), so the walk
    // never settles into a short, cached loop.
    let mut next: Vec<u32> = (0..words as u32).collect();
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..words).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(i, (state % i as u64) as usize);
    }
    (0..steps).fold(0, |p, _| next[p as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brackets_each_step_between_kernel_runs() {
        let mut runs = 0.0;
        let mut kernel = || {
            runs += 1.0;
            Ok(runs)
        };
        let out = bracketed(&mut kernel, |i| i < 3, |i| Ok(i * 10)).unwrap();
        assert_eq!(out, [(0, 1.5), (10, 2.5), (20, 3.5)]);
        let once = bracketed(|| Ok(1.0), |_| false, |_| Ok(())).unwrap();
        assert_eq!(once.len(), 1, "at least one step");
        let stop = |_| Err::<(), _>("stop".to_string());
        assert!(bracketed(|| Ok(1.0), |_| true, stop).is_err());
        assert!(bracketed(|| Err("no kernel".to_string()), |_| true, |_| Ok(())).is_err());
    }

    #[test]
    fn scales_to_the_reference_speed() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(scaled(3.0, REFERENCE_S), 3.0));
        assert!(close(scaled(3.0, 2.0 * REFERENCE_S), 1.5));
    }

    #[test]
    fn the_kernels_are_deterministic() {
        assert_eq!(dispatch(100_000), dispatch(100_000));
        assert_eq!(stream(1000, 3), stream(1000, 3));
        assert_eq!(chase(1000, 5000), chase(1000, 5000));
        assert_ne!(dispatch(100_000), dispatch(100_001));
    }
}
