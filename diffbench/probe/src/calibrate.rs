//! The host-speed reference: a fixed kernel that uses none of the
//! repository's crates, so it takes the same work on every commit.
//!
//! The mining workloads are CPU-bound, and a shared host can run them
//! at half speed for minutes at a time. `run.py` times this kernel right
//! before and right after every mining command and scales the command's
//! wall-clock by the kernel's nominal time over the mean of the two,
//! which cancels most of the host's speed and keeps the program's.
//!
//! The kernel mixes what mining does: allocating small strings, hashing
//! them into maps, sorting, faulting in fresh memory and chasing
//! pointers through a table larger than the cache.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const VALUES: usize = 200_000;
const KEYS: u64 = 20_000;
const ROUNDS: u64 = 4;
/// u64 slots of the pointer-chasing table: 16 MB, allocated per round.
const TABLE: usize = 2 << 20;
const CHASE: usize = 150_000;

fn round(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut values = Vec::with_capacity(VALUES);
    for _ in 0..VALUES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x);
    }
    let mut groups: HashMap<String, Vec<u32>> = HashMap::new();
    for (i, v) in values.iter().enumerate() {
        groups
            .entry(format!("k{}", v % KEYS))
            .or_default()
            .push(i as u32);
    }
    values.sort_unstable();
    let mut acc = values[VALUES / 2];
    for (key, members) in &groups {
        acc = acc.wrapping_add(key.len() as u64 * members.len() as u64);
    }
    let mut table = vec![0u64; TABLE];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
    }
    let mut at = acc as usize % TABLE;
    for _ in 0..CHASE {
        at = (table[at] as usize ^ at) % TABLE;
    }
    acc ^ at as u64
}

fn thread_rounds(thread: u64) -> u64 {
    (0..ROUNDS).fold(0, |acc, r| acc ^ round(thread * ROUNDS + r))
}

/// Runs the kernel on `threads` threads at once and returns its
/// wall-clock in seconds.
pub fn run(threads: usize) -> f64 {
    let start = Instant::now();
    let out: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| scope.spawn(move || thread_rounds(t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .fold(0, |a, b| a ^ b)
    });
    black_box(out);
    start.elapsed().as_secs_f64()
}
