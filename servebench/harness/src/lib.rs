//! Serve admission benchmark: seeded workloads for
//! [`muerp_serve::serve_requests`], the correctness gate every run passes
//! through, and the statistics helpers the report uses.
//!
//! A workload fixes the network (generator, size, qubits, topology seed)
//! and the service shape (policy, round length, queue capacity, script
//! length). The `--seed` argument draws the open-loop request script over
//! that network, so two seeds are two traffic samples on the same
//! network. The traced replica of the round loop lives in [`replica`].

#![forbid(unsafe_code)]

pub mod replica;

use std::time::Instant;

use muerp_core::extensions::{Request, RequestStream, StreamConfig};
use muerp_core::model::{NetworkSpec, QuantumNetwork};
use muerp_serve::{audit_group_tree, Decision, PolicyKind, ServeConfig, ServeOutcome, Verdict};

/// Seed used when `--seed` is absent; its decision digests are pinned in
/// [`Workload::pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Switch count of the Waxman network.
    pub switches: usize,
    /// User count.
    pub users: usize,
    /// Qubits per switch.
    pub qubits: u32,
    /// Seed of the topology generator (fixed per workload).
    pub topology_seed: u64,
    /// Virtual-time slots in the request script.
    pub slots: u64,
    /// Admission-order policy.
    pub policy: PolicyKind,
    /// Decision digest at [`DEFAULT_SEED`] (see [`digest`]).
    pub pinned_digest: u64,
}

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "pd-busy",
        switches: 50,
        users: 10,
        qubits: 4,
        topology_seed: 11,
        slots: 1 << 19,
        policy: PolicyKind::WeightedFair,
        pinned_digest: 0x1ef7_3892_612f_3071,
    },
    Workload {
        name: "wax240-scarce",
        switches: 240,
        users: 40,
        qubits: 2,
        topology_seed: 12,
        slots: 1 << 16,
        policy: PolicyKind::Fcfs,
        pinned_digest: 0x3f87_e622_0bd7_17c2,
    },
    Workload {
        name: "wax1200",
        switches: 1200,
        users: 40,
        qubits: 4,
        topology_seed: 13,
        slots: 1 << 15,
        policy: PolicyKind::Fcfs,
        pinned_digest: 0xa862_a10e_a0b0_6c82,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The network specification: the paper's Waxman defaults (average
    /// degree 6, 10 000 × 10 000 area, `q = 0.9`, `α = 10⁻⁴`) at this
    /// workload's size and qubit count.
    pub fn spec(&self) -> NetworkSpec {
        let mut spec = NetworkSpec::paper_default().with_qubits(self.qubits);
        spec.topology.nodes = self.switches + self.users;
        spec.users = self.users;
        spec
    }

    /// Service configuration over a script of `slots` slots: 32-slot
    /// rounds, a queue of 16, and the default stream shape.
    pub fn serve_config_for(&self, slots: u64) -> ServeConfig {
        ServeConfig {
            stream: StreamConfig {
                slots,
                ..StreamConfig::default()
            },
            round_slots: 32,
            queue_capacity: 16,
            policy: self.policy,
        }
    }

    /// Service configuration at the workload's full script length.
    pub fn serve_config(&self) -> ServeConfig {
        self.serve_config_for(self.slots)
    }

    /// Builds the workload's network.
    pub fn build_network(&self) -> QuantumNetwork {
        self.spec().build(self.topology_seed)
    }

    /// Draws the request script of `cfg` over `net` from `seed`.
    pub fn script(net: &QuantumNetwork, cfg: &ServeConfig, seed: u64) -> Vec<Request> {
        RequestStream::new(net, cfg.stream, seed).collect()
    }
}

/// The inputs of one run and the time each set-up took.
pub struct Setup {
    /// The network.
    pub net: QuantumNetwork,
    /// The request script.
    pub script: Vec<Request>,
    /// Seconds per `NetworkSpec::build`, one entry per repetition.
    pub build_s: Vec<f64>,
    /// Seconds per script collection, one entry per repetition.
    pub script_s: Vec<f64>,
}

/// Builds the network and collects the script once, timing each.
fn timed_set_up(
    w: &Workload,
    cfg: &ServeConfig,
    seed: u64,
) -> (QuantumNetwork, Vec<Request>, f64, f64) {
    let t = Instant::now();
    let net = std::hint::black_box(w.build_network());
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let script = std::hint::black_box(Workload::script(&net, cfg, seed));
    let script_s = t.elapsed().as_secs_f64();
    (net, script, build_s, script_s)
}

impl Setup {
    /// Sets the workload up once.
    pub fn new(w: &Workload, cfg: &ServeConfig, seed: u64) -> Setup {
        let (net, script, build_s, script_s) = timed_set_up(w, cfg, seed);
        Setup {
            net,
            script,
            build_s: vec![build_s],
            script_s: vec![script_s],
        }
    }

    /// Sets the workload up again, timing it, and checks that the fresh
    /// script equals the kept one. Returns the seconds it took.
    ///
    /// # Panics
    ///
    /// Panics when the fresh script differs: set-up must be a pure
    /// function of the workload and seed.
    pub fn repeat(&mut self, w: &Workload, cfg: &ServeConfig, seed: u64) -> f64 {
        let (_, script, build_s, script_s) = timed_set_up(w, cfg, seed);
        assert!(script == self.script, "set-up is deterministic");
        self.build_s.push(build_s);
        self.script_s.push(script_s);
        build_s + script_s
    }

    /// Number of set-ups timed.
    pub fn reps(&self) -> usize {
        self.build_s.len()
    }

    /// Seconds per whole set-up (build plus script), per repetition.
    pub fn total_s(&self) -> Vec<f64> {
        self.build_s
            .iter()
            .zip(&self.script_s)
            .map(|(b, s)| b + s)
            .collect()
    }
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Hash of one decision: request id, verdict, and for an admission every
/// channel's node path in tree order.
pub fn decision_hash(d: &Decision) -> u64 {
    let mut h = Fnv::new();
    h.word(d.request);
    let code = match &d.verdict {
        Verdict::Admitted { .. } => 1,
        Verdict::BlockedBusy => 2,
        Verdict::BlockedCapacity => 3,
        Verdict::Shed => 4,
    };
    h.word(code);
    if let Verdict::Admitted { tree } = &d.verdict {
        h.word(tree.channels.len() as u64);
        for c in &tree.channels {
            h.word(c.path.nodes.len() as u64);
            for v in &c.path.nodes {
                h.word(v.index() as u64);
            }
        }
    }
    h.0
}

/// The decision digest: [`decision_hash`] of every decision, folded in
/// decision order.
pub fn digest(decisions: &[Decision]) -> u64 {
    let mut h = Fnv::new();
    for d in decisions {
        h.word(decision_hash(d));
    }
    h.0
}

/// Result of checking one serve outcome.
#[derive(Clone, Debug, Default)]
pub struct Check {
    /// Decisions checked.
    pub ops: u64,
    /// Decisions failing any check.
    pub failed: u64,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Check {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Adds another check's tallies.
    pub fn merge(&mut self, other: Check) {
        self.ops += other.ops;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }
}

/// Checks an outcome against its script: every request decided exactly
/// once, arrived = admitted + blocked + shed = decisions, and every
/// admitted tree passes [`audit_group_tree`]. Blocked and shed requests
/// are outcomes, not failures. A broken account fails every decision.
pub fn check_outcome(net: &QuantumNetwork, script: &[Request], out: &ServeOutcome) -> Check {
    let s = &out.stats;
    let mut check = Check {
        ops: out.decisions.len() as u64,
        ..Check::default()
    };
    if s.arrived != s.admitted + s.blocked() + s.shed
        || out.decisions.len() as u64 != s.arrived
        || s.arrived != script.len() as u64
    {
        check.failed = check.ops.max(1);
        check.problems.push(format!(
            "accounting: arrived {} admitted {} blocked {} shed {} decisions {} script {}",
            s.arrived,
            s.admitted,
            s.blocked(),
            s.shed,
            out.decisions.len(),
            script.len()
        ));
        return check;
    }
    let mut seen = vec![false; script.len()];
    for d in &out.decisions {
        let Some(req) = script.get(d.request as usize) else {
            check.fail(format!("request {} is not in the script", d.request));
            continue;
        };
        if std::mem::replace(&mut seen[d.request as usize], true) {
            check.fail(format!("request {} decided twice", d.request));
            continue;
        }
        if d.size != req.members.len() || d.arrived_slot != req.slot || d.class != req.class {
            check.fail(format!(
                "request {} decided with the wrong shape",
                d.request
            ));
            continue;
        }
        if let Verdict::Admitted { tree } = &d.verdict {
            if let Err(e) = audit_group_tree(net, &req.members, tree) {
                check.fail(format!("request {}: {e}", d.request));
            }
        }
    }
    check
}

/// Counts the decisions of `decisions` whose hash differs from the
/// reference run's (plus any length difference).
pub fn count_mismatches(reference: &[u64], decisions: &[Decision]) -> u64 {
    let differing = reference
        .iter()
        .zip(decisions)
        .filter(|(h, d)| **h != decision_hash(d))
        .count();
    (differing + reference.len().abs_diff(decisions.len())) as u64
}

/// Fraction of arrivals admitted.
pub fn admit_ratio(out: &ServeOutcome) -> f64 {
    out.stats.admitted as f64 / out.stats.arrived.max(1) as f64
}

/// Median of unsorted samples (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile ladder tried by [`tail_percentile`], as `(millionths,
/// percentile)`: p50, p90, p99, p99.9, p99.99, p99.999.
const LADDER: [(u64, f64); 6] = [
    (500_000, 50.0),
    (900_000, 90.0),
    (990_000, 99.0),
    (999_000, 99.9),
    (999_900, 99.99),
    (999_990, 99.999),
];

/// Nearest-rank index (0-based) of quantile `millionths / 10⁶` in `n`
/// sorted samples.
fn rank_index(n: usize, millionths: u64) -> usize {
    let rank = (n as u64 * millionths).div_ceil(1_000_000).max(1);
    rank as usize - 1
}

/// Nearest-rank percentile of samples sorted ascending.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let millionths = (pct * 10_000.0).round() as u64;
    sorted[rank_index(sorted.len(), millionths)]
}

/// The highest percentile of [`LADDER`] with at least ten samples
/// strictly beyond its nearest-rank position, as `(percentile, value)`;
/// `None` when even p50 has fewer than ten samples beyond it.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .find(|(m, _)| n > 0 && n - 1 - rank_index(n, *m) >= 10)
        .map(|&(m, label)| (label, sorted[rank_index(n, m)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&ramp(19)), None);
        // 20 samples: p50 is rank 10, leaving exactly ten beyond.
        assert_eq!(tail_percentile(&ramp(20)), Some((50.0, 10.0)));
        // 100 samples: p90 leaves ten, p99 only one.
        assert_eq!(tail_percentile(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&ramp(1_000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&ramp(1_009)), Some((99.0, 999.0)));
        assert_eq!(tail_percentile(&ramp(10_000)), Some((99.9, 9_990.0)));
        for n in [20, 57, 100, 999, 1_000, 5_000, 65_536] {
            let v = ramp(n);
            let (pct, value) = tail_percentile(&v).expect("enough samples");
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond p{pct}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
