//! The host-speed probe.
//!
//! The benchmark's host shares its cores with other tenants, whose load
//! slows the simulator by up to 2x for seconds or minutes at a time. A
//! rep's wall time alone then measures the neighbours as much as the
//! code. The probe is a small, frozen workload with the simulator's
//! profile (a discrete-event loop over a binary heap, short-lived
//! allocations, ordered-map inserts, `ln` draws). It runs between reps,
//! and each rep's time is rescaled by how much slower than nominal the
//! probes on either side of it ran. This code belongs to the benchmark
//! and must not change, or every figure moves with it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::time::Instant;

/// What [`probe_s`] takes on an uncontended core of the host the
/// benchmark was tuned on (see README). Rescaled times are in units of
/// that host's seconds.
pub const NOMINAL_S: f64 = 3.5e-3;

/// Wall seconds one probe takes now.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    std::hint::black_box(queue_sim(20_000) ^ map_churn(250));
    t.elapsed().as_secs_f64()
}

/// xorshift64: the probe's own frozen generator.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn unit(x: &mut u64) -> f64 {
    (next(x) >> 11) as f64 / (1u64 << 53) as f64
}

fn exp_ns(x: &mut u64, mean: f64) -> u64 {
    (-(1.0 - unit(x)).ln() * mean) as u64 + 1
}

/// An M/M/3 queue run to `jobs` departures.
fn queue_sim(jobs: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15;
    let mut events: BinaryHeap<Reverse<(u64, bool)>> = BinaryHeap::new();
    let mut waiting: VecDeque<Vec<u64>> = VecDeque::new();
    let (mut busy, mut done, mut acc) = (0u32, 0u64, 0u64);
    events.push(Reverse((0, true)));
    while let Some(Reverse((now, arrival))) = events.pop() {
        if done == jobs {
            break;
        }
        if arrival {
            events.push(Reverse((now + exp_ns(&mut x, 1_000.0), true)));
            let job = vec![now; 1 + (unit(&mut x) * 8.0) as usize];
            if busy < 3 {
                busy += 1;
                acc = acc.wrapping_add(job.iter().sum::<u64>());
                events.push(Reverse((now + exp_ns(&mut x, 2_900.0), false)));
            } else {
                waiting.push_back(job);
            }
        } else {
            done += 1;
            match waiting.pop_front() {
                Some(job) => {
                    acc = acc.wrapping_add(job.len() as u64);
                    events.push(Reverse((now + exp_ns(&mut x, 2_900.0), false)));
                }
                None => busy -= 1,
            }
        }
    }
    acc
}

/// Build and drop `rounds` small ordered maps and vectors of vectors.
fn map_churn(rounds: u32) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0;
    for _ in 0..rounds {
        let mut map = BTreeMap::new();
        let mut vecs: Vec<Vec<u64>> = Vec::new();
        for i in 0..64u64 {
            let v = next(&mut x);
            map.insert(v % 1_000, i);
            vecs.push(vec![v; (v % 32) as usize + 1]);
        }
        acc += map.len() as u64 + vecs.iter().map(|v| v.len() as u64).sum::<u64>();
    }
    acc
}
