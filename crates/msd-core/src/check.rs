//! The per-perturbation checks behind every validating entry point.
//!
//! [`DynamicSession::ingest`](crate::DynamicSession::ingest),
//! [`DynamicSession::try_apply_graph_batch`](crate::DynamicSession::try_apply_graph_batch)
//! and [`ShardedEngine::ingest`](crate::ShardedEngine::ingest) all reject
//! a malformed batch through [`BatchCheck`], so one input gets one
//! verdict whichever way it comes in. Availability is simulated: the
//! batch's own earlier arrivals and departures overlay the caller's
//! residency lookup, so a duplicate arrival or an absent departure is
//! caught against exactly the state it would execute against, without
//! mutating anything.

// Ingestion boundary: faults arrive here as values, never as panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;

use msd_metric::EdgeUpdateError;

use crate::session::{GraphPerturbation, PerturbationError, SessionError, SessionPerturbation};
use crate::ElementId;

/// One batch's checker over a ground set of `n` elements.
pub(crate) struct BatchCheck<R> {
    n: usize,
    weight_updates: bool,
    resident: R,
    /// Residency after the batch's earlier arrivals and departures.
    simulated: HashMap<ElementId, bool>,
}

impl<R: Fn(ElementId) -> bool> BatchCheck<R> {
    /// A checker for `n` elements whose quality oracle does
    /// (`weight_updates`) or does not take weight rewrites; `resident(u)`
    /// is `u`'s availability before the batch.
    pub(crate) fn new(n: usize, weight_updates: bool, resident: R) -> Self {
        Self {
            n,
            weight_updates,
            resident,
            simulated: HashMap::new(),
        }
    }

    /// Checks a matrix batch in order.
    ///
    /// # Errors
    ///
    /// [`SessionError::Rejected`] at the first offending perturbation.
    pub(crate) fn matrix(mut self, batch: &[SessionPerturbation]) -> Result<(), SessionError> {
        first_rejection(batch, |p| match p {
            SessionPerturbation::SetWeight { u, value } => self.weight(u, value),
            SessionPerturbation::SetDistance { u, v, value } => {
                self.in_range(u)?;
                self.in_range(v)?;
                if u == v {
                    Err(PerturbationError::DiagonalDistance { u })
                } else if !(value.is_finite() && value >= 0.0) {
                    Err(PerturbationError::InvalidDistance { u, v, value })
                } else {
                    Ok(())
                }
            }
            SessionPerturbation::Arrive { u } => self.availability(u, true),
            SessionPerturbation::Depart { u } => self.availability(u, false),
        })
    }

    /// Checks a graph batch in order. Only the data of an edge update is
    /// checked here; whether a removal finds its edge and keeps the graph
    /// connected depends on the batch's earlier updates and is known only
    /// when the metric applies it.
    ///
    /// # Errors
    ///
    /// [`SessionError::Rejected`] at the first offending perturbation.
    pub(crate) fn graph(mut self, batch: &[GraphPerturbation]) -> Result<(), SessionError> {
        first_rejection(batch, |p| match p {
            GraphPerturbation::SetEdge { u, v, weight } => {
                self.endpoints(u, v)?;
                if weight.is_finite() && weight >= 0.0 {
                    Ok(())
                } else {
                    Err(EdgeUpdateError::InvalidWeight { u, v, weight }.into())
                }
            }
            GraphPerturbation::RemoveEdge { u, v } => self.endpoints(u, v),
            GraphPerturbation::SetWeight { u, value } => self.weight(u, value),
            GraphPerturbation::Arrive { u } => self.availability(u, true),
            GraphPerturbation::Depart { u } => self.availability(u, false),
        })
    }

    fn in_range(&self, u: ElementId) -> Result<(), PerturbationError> {
        if (u as usize) < self.n {
            Ok(())
        } else {
            Err(PerturbationError::ElementOutOfRange { u, n: self.n })
        }
    }

    fn weight(&self, u: ElementId, value: f64) -> Result<(), PerturbationError> {
        self.in_range(u)?;
        if !self.weight_updates {
            Err(PerturbationError::WeightUpdatesUnsupported { u })
        } else if !(value.is_finite() && value >= 0.0) {
            Err(PerturbationError::InvalidWeight { u, value })
        } else {
            Ok(())
        }
    }

    fn endpoints(&self, u: ElementId, v: ElementId) -> Result<(), PerturbationError> {
        if (u as usize) >= self.n || (v as usize) >= self.n {
            Err(EdgeUpdateError::EndpointOutOfRange { u, v, n: self.n }.into())
        } else if u == v {
            Err(EdgeUpdateError::SelfLoop { u }.into())
        } else {
            Ok(())
        }
    }

    /// An arrival (`arrive`) or departure of `u`, checked against the
    /// simulated residency and then recorded in it.
    fn availability(&mut self, u: ElementId, arrive: bool) -> Result<(), PerturbationError> {
        self.in_range(u)?;
        let resident = match self.simulated.get(&u) {
            Some(&r) => r,
            None => (self.resident)(u),
        };
        match (arrive, resident) {
            (true, true) => Err(PerturbationError::DuplicateArrival { u }),
            (false, false) => Err(PerturbationError::DepartureOfAbsent { u }),
            _ => {
                self.simulated.insert(u, arrive);
                Ok(())
            }
        }
    }
}

fn first_rejection<P: Copy>(
    batch: &[P],
    mut check: impl FnMut(P) -> Result<(), PerturbationError>,
) -> Result<(), SessionError> {
    for (index, &p) in batch.iter().enumerate() {
        check(p).map_err(|error| SessionError::Rejected { index, error })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::greedy::{greedy_b, GreedyBConfig};
    use crate::problem::DiversificationProblem;
    use crate::session::{
        DynamicSession, GraphPerturbation, PerturbationError as E, SessionError,
        SessionPerturbation as P,
    };
    use crate::sharded::{ShardedConfig, ShardedEngine};
    use crate::ElementId;
    use msd_metric::{DistanceMatrix, DynamicGraphMetric, Metric, WeightedGraph};
    use msd_submodular::{CoverageFunction, IncrementalOracle, ModularFunction, SetFunction};

    const N: u32 = 12;
    const P_SIZE: usize = 3;
    /// Departed before every row, so the table can depart it again.
    const GONE: ElementId = 11;

    /// The graph twin of a matrix perturbation, for the arms both
    /// perturbation models share.
    fn graph_twin(p: P) -> Option<GraphPerturbation> {
        match p {
            P::SetWeight { u, value } => Some(GraphPerturbation::SetWeight { u, value }),
            P::Arrive { u } => Some(GraphPerturbation::Arrive { u }),
            P::Depart { u } => Some(GraphPerturbation::Depart { u }),
            P::SetDistance { .. } => None,
        }
    }

    /// Bit-level state of a session: distances, solution, availability,
    /// objective, stability.
    fn session_bits<M: Metric, Q: IncrementalOracle + ?Sized>(
        s: &DynamicSession<'_, M, Q>,
    ) -> (Vec<u64>, Vec<ElementId>, Vec<bool>, u64, bool) {
        let m = s.metric();
        (
            (0..N)
                .flat_map(|u| (0..N).map(move |v| m.distance(u, v).to_bits()))
                .collect(),
            s.solution().to_vec(),
            (0..N).map(|u| s.is_active(u)).collect(),
            s.objective().to_bits(),
            s.is_stable(),
        )
    }

    /// Every validating entry point's verdict on `batch` over `quality`
    /// (the graph session only when every perturbation has a graph twin),
    /// rendered with `Debug` so NaN payloads compare; asserts that each
    /// rejection left its state bit-for-bit untouched.
    fn verdicts<F: SetFunction + Clone>(quality: &F, batch: &[P]) -> Vec<String> {
        let metric = DistanceMatrix::from_fn(N as usize, |u, v| {
            1.0 + f64::from((u * 7 + v * 3) % 5) * 0.25
        });
        let problem = DiversificationProblem::new(metric, quality.clone(), 0.5);
        let init = greedy_b(&problem, P_SIZE, GreedyBConfig::default());
        let gone = P::Depart { u: GONE };
        let mut out = Vec::new();

        let mut session = DynamicSession::new(&problem, &init);
        session.ingest(&[gone]).expect("valid departure");
        let before = session_bits(&session);
        out.push(session.ingest(batch).unwrap_err());
        assert_eq!(
            session_bits(&session),
            before,
            "session mutated by {batch:?}"
        );

        let config = ShardedConfig {
            machines: 2,
            ..ShardedConfig::default()
        };
        let mut engine = ShardedEngine::new(&problem, P_SIZE, config);
        engine.ingest(&[gone]).expect("valid departure");
        let engine_bits = |e: &ShardedEngine<'_, DistanceMatrix>| {
            let shards: Vec<_> = (0..e.shards())
                .filter_map(|s| {
                    e.session(s)
                        .map(|s| (s.solution().to_vec(), s.objective().to_bits()))
                })
                .collect();
            let active: Vec<bool> = (0..N)
                .map(|u| {
                    let s = e.shard_of(u);
                    let local = e.shard_members(s).binary_search(&u).expect("owned");
                    e.session(s)
                        .is_some_and(|s| s.is_active(local as ElementId))
                })
                .collect();
            (
                e.solution().to_vec(),
                e.objective().to_bits(),
                e.proposals().to_vec(),
                shards,
                active,
            )
        };
        let before = engine_bits(&engine);
        out.push(engine.ingest(batch).unwrap_err());
        assert_eq!(engine_bits(&engine), before, "engine mutated by {batch:?}");

        if let Some(graph_batch) = batch
            .iter()
            .map(|&p| graph_twin(p))
            .collect::<Option<Vec<_>>>()
        {
            let mut g = WeightedGraph::new(N as usize);
            for u in 0..N {
                g.add_edge(u, (u + 1) % N, 1.0 + f64::from(u % 3) * 0.5);
            }
            g.add_edge(0, 6, 2.0);
            let metric = DynamicGraphMetric::from_graph(&g).expect("connected");
            let problem = DiversificationProblem::new(metric, quality.clone(), 0.5);
            let init = greedy_b(&problem, P_SIZE, GreedyBConfig::default());
            let mut session = DynamicSession::new(&problem, &init);
            session
                .try_apply_graph_batch(&[GraphPerturbation::Depart { u: GONE }])
                .expect("valid departure");
            let before = session_bits(&session);
            out.push(session.try_apply_graph_batch(&graph_batch).unwrap_err());
            assert_eq!(
                session_bits(&session),
                before,
                "graph session mutated by {batch:?}"
            );
        }
        out.iter().map(|e| format!("{e:?}")).collect()
    }

    #[test]
    fn every_entry_point_returns_the_checkers_verdict() {
        let modular = ModularFunction::new((0..N).map(|u| 0.2 + f64::from(u % 4) * 0.3).collect());
        let covers: Vec<Vec<u32>> = (0..N).map(|u| vec![u % 4, (u + 1) % 4]).collect();
        let coverage = CoverageFunction::new(covers, vec![1.0, 2.0, 0.5, 1.5]);
        let n = N as usize;
        // (coverage quality?, batch, rejected index, error)
        let table: Vec<(bool, Vec<P>, usize, E)> = vec![
            (
                false,
                vec![P::SetWeight { u: 0, value: 2.0 }, P::Arrive { u: 99 }],
                1,
                E::ElementOutOfRange { u: 99, n },
            ),
            (
                false,
                vec![P::SetWeight {
                    u: 2,
                    value: f64::NAN,
                }],
                0,
                E::InvalidWeight {
                    u: 2,
                    value: f64::NAN,
                },
            ),
            (
                false,
                vec![P::SetWeight { u: 3, value: -1.0 }],
                0,
                E::InvalidWeight { u: 3, value: -1.0 },
            ),
            (
                true,
                vec![P::SetWeight { u: 1, value: 1.0 }],
                0,
                E::WeightUpdatesUnsupported { u: 1 },
            ),
            (
                false,
                vec![P::SetDistance {
                    u: 4,
                    v: 4,
                    value: 1.0,
                }],
                0,
                E::DiagonalDistance { u: 4 },
            ),
            (
                false,
                vec![P::SetDistance {
                    u: 0,
                    v: 5,
                    value: -0.5,
                }],
                0,
                E::InvalidDistance {
                    u: 0,
                    v: 5,
                    value: -0.5,
                },
            ),
            (
                false,
                vec![P::Arrive { u: 0 }],
                0,
                E::DuplicateArrival { u: 0 },
            ),
            (
                false,
                vec![P::Depart { u: GONE }],
                0,
                E::DepartureOfAbsent { u: GONE },
            ),
            // The arrival after an in-batch departure is accepted; only the
            // simulated mask sees that the next one is a duplicate.
            (
                false,
                vec![P::Depart { u: 5 }, P::Arrive { u: 5 }, P::Arrive { u: 5 }],
                2,
                E::DuplicateArrival { u: 5 },
            ),
        ];
        for (on_coverage, batch, index, error) in table {
            let got = if on_coverage {
                verdicts(&coverage, &batch)
            } else {
                verdicts(&modular, &batch)
            };
            let shared_arms = batch.iter().all(|&p| graph_twin(p).is_some());
            assert_eq!(got.len(), if shared_arms { 3 } else { 2 }, "{batch:?}");
            let want = format!("{:?}", SessionError::Rejected { index, error });
            for verdict in &got {
                assert_eq!(verdict, &want, "{batch:?}");
            }
        }
    }
}
