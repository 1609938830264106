//! The traced replica of the serve round loop.
//!
//! [`replay`] re-drives the round loop of `muerp_serve::engine` from
//! outside the engine, calling the same public functions in the same
//! order: `CapacityMap::release`, `ChannelFinderCache::absorb`,
//! `BoundedQueue::offer`/`drain`, `ChannelFinderCache::warm`,
//! `order_requests`, `route_group_cached` and the `TimeSeries` calls. It
//! records one [`Span`] per call under a per-round span and keeps them in
//! memory. Its [`ServeOutcome`] must equal `serve_requests`' exactly,
//! which is what ties the per-layer numbers to the engine's work.

use std::collections::HashSet;
use std::time::Instant;

use qnet_graph::NodeId;
use qnet_obs::{TimeSeries, TimeSeriesConfig};

use muerp_core::algorithms::ChannelFinderCache;
use muerp_core::channel::CapacityMap;
use muerp_core::extensions::{route_group_cached, Request};
use muerp_core::model::QuantumNetwork;
use muerp_core::tree::EntanglementTree;
use muerp_serve::policy::order_requests;
use muerp_serve::{
    BoundedQueue, Decision, DeficitState, RoundReport, ServeConfig, ServeOutcome, ServeStats,
    Verdict,
};

/// A traced layer: one span name per layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One admission round.
    Round,
    /// The departure loop: expired sessions' `CapacityMap::release`.
    Depart,
    /// `ChannelFinderCache::absorb` after departures.
    Absorb,
    /// `BoundedQueue::offer` per arrival, `drain`, and the shed verdicts.
    Queue,
    /// One call (or one end-of-round group of calls) into `TimeSeries`.
    TimeSeries,
    /// Collecting the queue's distinct members and
    /// `ChannelFinderCache::warm`.
    Warm,
    /// Building the set of members busy in active sessions.
    Busy,
    /// `order_requests`.
    Policy,
    /// The admission loop: busy checks, verdict bookkeeping and the
    /// decision log (routing and time-series calls are its children).
    Admit,
    /// One `route_group_cached` call.
    Route,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Round,
        Layer::Depart,
        Layer::Absorb,
        Layer::Queue,
        Layer::TimeSeries,
        Layer::Warm,
        Layer::Busy,
        Layer::Policy,
        Layer::Admit,
        Layer::Route,
    ];

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call: layer, parent span index, and start/end in
/// nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer the span times.
    pub layer: Layer,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty recorder.
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, layer: Layer) {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2³² spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("close matches an open");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.open(layer);
        let r = f();
        self.close();
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What one traced replay produced.
pub struct Replay {
    /// The replica's outcome; must equal `serve_requests`'.
    pub outcome: ServeOutcome,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Full searches run inside `ChannelFinderCache::warm` calls.
    pub warm_searches: u64,
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
}

struct Session {
    tree: EntanglementTree,
    expires_at: u64,
    members: Vec<NodeId>,
}

/// Replays the engine's round loop over `requests` with every layer call
/// traced. Mirrors `muerp_serve::engine`'s `serve_with_cache` statement
/// for statement; the decisions, reports, time series and deficits must
/// come out identical.
pub fn replay(net: &QuantumNetwork, cfg: &ServeConfig, requests: &[Request]) -> Replay {
    let started = Instant::now();
    let mut tr = Tracer::new();
    let mut cache = ChannelFinderCache::new(net);
    cfg.validate();
    let mut capacity = CapacityMap::new(net);
    let rounds_total = cfg.rounds();
    let mut series = TimeSeries::new(TimeSeriesConfig {
        window_slots: cfg.round_slots,
        capacity: (rounds_total + 2) as usize,
    });
    for key in [
        "arrivals",
        "admitted",
        "blocked_busy",
        "blocked_capacity",
        "shed",
        "departures",
    ] {
        series.rate_add(key, 0);
    }

    let mut queue = BoundedQueue::new(cfg.queue_capacity);
    let mut deficit = DeficitState::new();
    let mut active: Vec<Session> = Vec::new();
    let mut stats = ServeStats::default();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut rounds: Vec<RoundReport> = Vec::new();
    let mut session_rate_sum = 0.0f64;
    let mut next = 0usize;
    let mut warm_searches = 0u64;

    for round in 0..rounds_total {
        tr.open(Layer::Round);
        let start = round * cfg.round_slots;
        let end = ((round + 1) * cfg.round_slots).min(cfg.stream.slots);
        tr.span(Layer::TimeSeries, || series.advance_to(start));

        // 1. Departures, then absorb.
        tr.open(Layer::Depart);
        let mut departed = 0u64;
        let mut kept_sessions = Vec::with_capacity(active.len());
        for session in active.drain(..) {
            if session.expires_at <= end {
                for c in &session.tree.channels {
                    capacity.release(c);
                }
                departed += 1;
            } else {
                kept_sessions.push(session);
            }
        }
        active = kept_sessions;
        tr.close();
        if departed > 0 {
            tr.span(Layer::Absorb, || cache.absorb(&capacity));
        }
        stats.departures += departed;

        // 2. Arrivals into the bounded queue; sheds decided at once.
        tr.open(Layer::Queue);
        while next < requests.len() && requests[next].slot < end {
            let r = requests[next].clone();
            next += 1;
            stats.arrived += 1;
            stats.per_class[r.class.index()].arrived += 1;
            tr.span(Layer::TimeSeries, || series.rate_add("arrivals", 1));
            qnet_obs::counter!("serve.arrivals");
            queue.offer(r);
        }
        let (kept, shed) = queue.drain();
        for r in &shed {
            stats.shed += 1;
            stats.per_class[r.class.index()].shed += 1;
            tr.span(Layer::TimeSeries, || series.rate_add("shed", 1));
            qnet_obs::counter!("serve.shed");
            decisions.push(Decision {
                request: r.id,
                arrived_slot: r.slot,
                round,
                class: r.class,
                size: r.members.len(),
                verdict: Verdict::Shed,
            });
        }
        stats.peak_queue = stats.peak_queue.max(kept.len());
        tr.close();

        // 3. Warm the cache for every distinct member.
        tr.open(Layer::Warm);
        let mut sources: Vec<NodeId> = kept
            .iter()
            .flat_map(|r| r.members.iter().copied())
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let searches_before = cache.search_count();
        cache.warm(&capacity, &sources);
        warm_searches += cache.search_count() - searches_before;
        tr.close();

        // 4. Policy order, then sequential admission.
        let mut busy: HashSet<NodeId> = tr.span(Layer::Busy, || {
            active
                .iter()
                .flat_map(|s| s.members.iter().copied())
                .collect()
        });
        let order = tr.span(Layer::Policy, || {
            order_requests(cfg.policy, &kept, &mut deficit)
        });
        let mut report = RoundReport {
            round,
            end_slot: end,
            queued: kept.len(),
            shed: shed.len() as u64,
            departures: departed,
            warmed: sources.len(),
            ..RoundReport::default()
        };
        tr.open(Layer::Admit);
        for idx in order {
            let r = &kept[idx];
            let verdict = if r.members.iter().any(|m| busy.contains(m)) {
                stats.blocked_busy += 1;
                stats.per_class[r.class.index()].blocked += 1;
                report.blocked_busy += 1;
                tr.span(Layer::TimeSeries, || series.rate_add("blocked_busy", 1));
                qnet_obs::counter!("serve.blocked", reason = "busy");
                Verdict::BlockedBusy
            } else {
                let routed = tr.span(Layer::Route, || {
                    route_group_cached(net, &mut cache, &mut capacity, &r.members)
                });
                match routed {
                    Some(tree) => {
                        stats.admitted += 1;
                        stats.per_class[r.class.index()].admitted += 1;
                        report.admitted += 1;
                        tr.span(Layer::TimeSeries, || series.rate_add("admitted", 1));
                        qnet_obs::counter!("serve.admitted");
                        session_rate_sum += tree.rate().value();
                        busy.extend(r.members.iter().copied());
                        active.push(Session {
                            tree: tree.clone(),
                            expires_at: end + r.hold,
                            members: r.members.clone(),
                        });
                        Verdict::Admitted { tree }
                    }
                    None => {
                        stats.blocked_capacity += 1;
                        stats.per_class[r.class.index()].blocked += 1;
                        report.blocked_capacity += 1;
                        tr.span(Layer::TimeSeries, || series.rate_add("blocked_capacity", 1));
                        qnet_obs::counter!("serve.blocked", reason = "capacity");
                        Verdict::BlockedCapacity
                    }
                }
            };
            decisions.push(Decision {
                request: r.id,
                arrived_slot: r.slot,
                round,
                class: r.class,
                size: r.members.len(),
                verdict,
            });
        }
        tr.close();

        report.searches = cache.search_count() - searches_before;
        tr.span(Layer::TimeSeries, || {
            series.rate_add("departures", departed);
            series.latency("round_searches", report.searches);
        });
        qnet_obs::histogram!("serve.round_searches", report.searches);
        stats.peak_active_sessions = stats.peak_active_sessions.max(active.len());
        tr.span(Layer::TimeSeries, || {
            series.gauge("queue_depth", kept.len() as f64);
            series.gauge("active_sessions", active.len() as f64);
            series.gauge("free_qubits", free_qubit_total(net, &capacity));
            series.gauge("cache_hit_rate", cache.efficiency().hit_rate());
        });
        rounds.push(report);
        tr.close();
    }

    stats.mean_session_rate = if stats.admitted == 0 {
        0.0
    } else {
        session_rate_sum / stats.admitted as f64
    };
    stats.total_searches = cache.search_count();
    stats.cache = cache.efficiency();
    let outcome = ServeOutcome {
        stats,
        decisions,
        rounds,
        series: series.finish(),
        deficits: deficit.deficits(),
    };
    Replay {
        outcome,
        tracer: tr,
        warm_searches,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Total free qubits across the network's switches (the engine's
/// `free_qubits` gauge).
fn free_qubit_total(net: &QuantumNetwork, capacity: &CapacityMap) -> f64 {
    net.switches().map(|s| capacity.free(s) as u64).sum::<u64>() as f64
}

/// Per-layer self time and the round wall times of one replay.
pub struct Attribution {
    /// Self time per layer in seconds, indexed like [`Layer::ALL`]. The
    /// `Round` entry is the round loop's own bookkeeping outside every
    /// traced call.
    pub self_s: [f64; Layer::ALL.len()],
    /// Span count per layer, indexed like [`Layer::ALL`].
    pub calls: [u64; Layer::ALL.len()],
    /// Wall time of each round in milliseconds, in round order.
    pub round_ms: Vec<f64>,
    /// Wall time of each `route_group_cached` call in microseconds.
    pub route_us: Vec<f64>,
}

impl Attribution {
    /// Attributes `spans`: a span's self time is its duration minus the
    /// durations of its direct children.
    pub fn of(spans: &[Span]) -> Attribution {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.duration_ns();
            }
        }
        let mut self_s = [0.0; Layer::ALL.len()];
        let mut calls = [0u64; Layer::ALL.len()];
        let mut round_ms = Vec::new();
        let mut route_us = Vec::new();
        for (s, &children) in spans.iter().zip(&child_ns) {
            let i = s.layer.index();
            self_s[i] += s.duration_ns().saturating_sub(children) as f64 * 1e-9;
            calls[i] += 1;
            match s.layer {
                Layer::Round => round_ms.push(s.duration_ns() as f64 * 1e-6),
                Layer::Route => route_us.push(s.duration_ns() as f64 * 1e-3),
                _ => {}
            }
        }
        Attribution {
            self_s,
            calls,
            round_ms,
            route_us,
        }
    }

    /// Self time of `layer`, seconds.
    pub fn self_of(&self, layer: Layer) -> f64 {
        self.self_s[layer.index()]
    }

    /// Span count of `layer`.
    pub fn calls_of(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Share of round wall time spent inside a named layer's self time
    /// (everything but the round loop's own bookkeeping).
    pub fn coverage(&self) -> f64 {
        let round_total: f64 = self.round_ms.iter().sum::<f64>() * 1e-3;
        if round_total == 0.0 {
            return 0.0;
        }
        1.0 - self.self_of(Layer::Round) / round_total
    }
}
