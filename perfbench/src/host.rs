//! Host-side measurements: peak resident memory and the reference loop
//! that calls no repository code, recorded beside every run so a noisy
//! verdict can say whether the host itself moved.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// `VmHWM` (peak resident set) of process `pid` in MB (2^20 bytes).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds taken by a fixed hash-map workload (200k seeded
/// updates over 50k keys, then 50k lookups; about 10 ms on a current
/// x86-64 core). Like the simulator's memo tables it is bound by cache
/// and memory latency, so it slows with the same host contention; a
/// pure arithmetic loop does not.
pub fn reference_loop_ms() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 50_000).or_insert(0) += i;
    }
    let total =
        (0..50_000u64).fold(0u64, |acc, k| acc.wrapping_add(map.get(&k).copied().unwrap_or(0)));
    black_box(total);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        let mb = peak_rss_mb(std::process::id()).expect("linux /proc");
        assert!(mb > 0.0);
        assert!(reference_loop_ms() > 0.0);
    }
}
