//! Serve oracle: the batched admission engine against the sequential
//! cold-routing FCFS reference, per request, per decision.
//!
//! [`muerp_serve`] promises that batched admission under FCFS is
//! **decision-equivalent** to admitting each request one at a time with
//! cold per-step searches — same admit/block/shed sequence, bitwise
//! identical entanglement trees. [`serve_check`] fuzzes that promise
//! over seeded request scripts ([`derive_requests`]): the script is fed
//! to both engines and every decision compared
//! ([`serve_check_requests`]), with each admitted solution additionally
//! re-audited by the independent group-tree audit.
//!
//! On failure the *script itself* is shrunk ([`shrink_requests`] via
//! the shared [`crate::shrink::greedy_shrink`]): requests are greedily
//! removed while the divergence persists, so the reported
//! counterexample is a minimal admission script. The fuzz driver
//! (`repro fuzz --serve`) additionally shrinks the topology spec.

use muerp_core::extensions::{Request, RequestStream, StreamConfig};
use muerp_core::model::QuantumNetwork;
use muerp_serve::{
    audit_group_tree, sequential_fcfs, serve_requests, PolicyKind, ServeConfig, Verdict,
};

use crate::differential::ConformanceError;

/// The serve-oracle round shape: short rounds and a tight queue so a
/// fuzz-scale script exercises admission, blocking, shedding, and
/// departures all at once.
pub fn script_config(group_cap: usize) -> ServeConfig {
    ServeConfig {
        stream: StreamConfig {
            slots: 96,
            base_arrival: 0.6,
            group_size: (2, group_cap.max(2)),
            hold_slots: (3, 10),
            ..StreamConfig::default()
        },
        round_slots: 8,
        queue_capacity: 4,
        policy: PolicyKind::Fcfs,
    }
}

/// Draws a deterministic request script for one trial from the
/// instance's own open-loop stream, decorrelated from the topology
/// seed.
pub fn derive_requests(net: &QuantumNetwork, seed: u64) -> Vec<Request> {
    let cfg = script_config(net.user_count().min(4));
    RequestStream::new(net, cfg.stream, seed ^ 0x5eed_5c21_9b1e_77a3).collect()
}

/// Replays one request script through both engines and compares every
/// decision; admitted solutions are independently re-audited.
///
/// # Errors
///
/// Returns [`ConformanceError::ServeDiverged`] naming the first
/// decision where batched and sequential disagree, or
/// [`ConformanceError::ServeUnsound`] when an admitted solution fails
/// the group-tree audit.
pub fn serve_check_requests(
    net: &QuantumNetwork,
    requests: &[Request],
) -> Result<(), ConformanceError> {
    let cfg = script_config(net.user_count().min(4));
    let batched = serve_requests(net, &cfg, requests);
    let oracle = sequential_fcfs(net, &cfg, requests);
    if batched.decisions.len() != oracle.len() {
        return Err(ConformanceError::ServeDiverged {
            step: batched.decisions.len().min(oracle.len()),
            requests: requests.len(),
        });
    }
    for (step, (b, o)) in batched.decisions.iter().zip(&oracle).enumerate() {
        if b != o {
            return Err(ConformanceError::ServeDiverged {
                step,
                requests: requests.len(),
            });
        }
    }
    for d in &batched.decisions {
        if let Verdict::Admitted { tree } = &d.verdict {
            let members = requests
                .iter()
                .find(|r| r.id == d.request)
                .map(|r| r.members.as_slice())
                .ok_or_else(|| ConformanceError::ServeUnsound {
                    detail: format!("decision names unknown request #{}", d.request),
                })?;
            audit_group_tree(net, members, tree).map_err(|detail| {
                ConformanceError::ServeUnsound {
                    detail: format!("request #{}: {detail}", d.request),
                }
            })?;
        }
    }
    Ok(())
}

/// Greedily shrinks a failing request script: drops any single request
/// whose removal keeps [`serve_check_requests`] failing. Returns the
/// minimal script, its error, and the number of requests removed.
pub fn shrink_requests(
    net: &QuantumNetwork,
    requests: Vec<Request>,
    error: ConformanceError,
) -> (Vec<Request>, ConformanceError, usize) {
    crate::shrink::greedy_shrink(requests, error, |candidate| {
        serve_check_requests(net, candidate)
    })
}

/// Runs the serve oracle on one instance: derive the seeded script,
/// check decision equivalence and admission soundness, and on failure
/// report the error of the **shrunk** minimal script.
///
/// # Errors
///
/// Returns the error of the minimal failing script.
pub fn serve_check(net: &QuantumNetwork, seed: u64) -> Result<(), ConformanceError> {
    let requests = derive_requests(net, seed);
    if let Err(error) = serve_check_requests(net, &requests) {
        let (_minimal, error, _removed) = shrink_requests(net, requests, error);
        return Err(error);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use muerp_core::model::NetworkSpec;

    #[test]
    fn derived_scripts_are_deterministic_and_nonempty() {
        let net = NetworkSpec::paper_default().build(13);
        let a = derive_requests(&net, 13);
        let b = derive_requests(&net, 13);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "0.6 arrival over 96 slots produces work");
        for r in &a {
            assert!(r.members.len() >= 2 && r.members.len() <= 4);
        }
    }

    #[test]
    fn serve_check_is_clean_on_the_paper_family() {
        for seed in 0..4 {
            let net = NetworkSpec::paper_default().build(seed);
            serve_check(&net, seed).expect("serve oracle must pass");
        }
    }

    #[test]
    fn empty_script_is_vacuously_clean() {
        let net = NetworkSpec::paper_default().build(5);
        serve_check_requests(&net, &[]).expect("no requests, no divergence");
    }
}
