//! An explicit-state interpreter of the dynamic model's transition
//! system, written apart from the relational encoding, the SAT solver
//! and the `mca-core` checker. It gives every consensus query in the
//! benchmark an expected verdict that does not come from the program
//! under test.
//!
//! The semantics are the ones `mca_verify::DynamicScenario` documents:
//! each agent holds a (winner, bid, time) claim per item; the buffer
//! holds at most one message per directed link and starts full. A step
//! consumes one buffered message `q → r`: for every item, `r` adopts
//! `q`'s claim when `q`'s bid is strictly greater, or equal with a lower
//! winner id; if any claim changed, `r` re-broadcasts to all its
//! neighbours. An attacker may instead re-assert its original bid on an
//! item it is not winning and broadcast. With an empty buffer the system
//! stutters. The consensus assertion holds at state `k` when every
//! execution of `k` steps ends with all agents agreeing on every item's
//! winner and winning bid.

use std::collections::HashSet;

use mca_verify::DynamicScenario;

/// One agent's claim on one item.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Claim {
    winner: Option<u8>,
    bid: i64,
    time: i64,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    /// `claims[p * vnodes + v]`.
    claims: Vec<Claim>,
    /// Bit `i` set when the message on directed link `i` is buffered.
    buffer: u64,
}

struct System<'a> {
    s: &'a DynamicScenario,
    /// Directed links, both directions of every undirected link.
    edges: Vec<(usize, usize)>,
    /// `out[p]`: buffer bits of the links leaving agent `p`.
    out: Vec<u64>,
}

impl<'a> System<'a> {
    fn new(s: &'a DynamicScenario) -> System<'a> {
        let mut edges: Vec<(usize, usize)> = s
            .links
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        assert!(
            edges.len() <= 64,
            "oracle supports at most 64 directed links"
        );
        let mut out = vec![0u64; s.pnodes];
        for (i, &(q, _)) in edges.iter().enumerate() {
            out[q] |= 1 << i;
        }
        System { s, edges, out }
    }

    fn initial(&self) -> State {
        let mut claims = Vec::with_capacity(self.s.pnodes * self.s.vnodes);
        for p in 0..self.s.pnodes {
            for v in 0..self.s.vnodes {
                let b = self.s.bids[p][v];
                claims.push(if b > 0 {
                    Claim {
                        winner: Some(p as u8),
                        bid: b,
                        time: 1,
                    }
                } else {
                    Claim {
                        winner: None,
                        bid: 0,
                        time: 0,
                    }
                });
            }
        }
        let buffer = if self.edges.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.edges.len()) - 1
        };
        State { claims, buffer }
    }

    fn idx(&self, p: usize, v: usize) -> usize {
        p * self.s.vnodes + v
    }

    fn successors(&self, st: &State, out: &mut Vec<State>) {
        if st.buffer == 0 {
            out.push(st.clone());
        }
        for (i, &(q, r)) in self.edges.iter().enumerate() {
            if st.buffer & (1 << i) == 0 {
                continue;
            }
            let mut next = st.clone();
            next.buffer &= !(1 << i);
            let mut changed = false;
            for v in 0..self.s.vnodes {
                let cq = st.claims[self.idx(q, v)];
                let cr = st.claims[self.idx(r, v)];
                let tie_lower_id = cq.bid == cr.bid
                    && matches!((cq.winner, cr.winner), (Some(wq), Some(wr)) if wq < wr);
                if cq.bid > cr.bid || tie_lower_id {
                    next.claims[self.idx(r, v)] = cq;
                    changed = true;
                }
            }
            if changed {
                next.buffer |= self.out[r];
            }
            out.push(next);
        }
        for &a in &self.s.attackers {
            for v in 0..self.s.vnodes {
                let b = self.s.bids[a][v];
                if b <= 0 || st.claims[self.idx(a, v)].winner == Some(a as u8) {
                    continue;
                }
                let mut next = st.clone();
                next.claims[self.idx(a, v)] = Claim {
                    winner: Some(a as u8),
                    bid: b,
                    time: 1,
                };
                next.buffer |= self.out[a];
                out.push(next);
            }
        }
    }

    fn consensus(&self, st: &State) -> bool {
        (0..self.s.vnodes).all(|v| {
            let c0 = st.claims[self.idx(0, v)];
            (1..self.s.pnodes).all(|p| {
                let c = st.claims[self.idx(p, v)];
                c.winner == c0.winner && c.bid == c0.bid
            })
        })
    }
}

/// `per_state[k]`: whether consensus holds after every execution of `k`
/// steps, for `k` in `0..scenario.states` — the oracle's counterpart of
/// `DynamicModel::convergence_sweep`.
pub fn per_state(scenario: &DynamicScenario) -> Vec<bool> {
    let sys = System::new(scenario);
    let mut layer: HashSet<State> = HashSet::from([sys.initial()]);
    let mut out = Vec::with_capacity(scenario.states);
    let mut succ = Vec::new();
    for k in 0..scenario.states {
        out.push(layer.iter().all(|st| sys.consensus(st)));
        if k + 1 == scenario.states {
            break;
        }
        let mut next = HashSet::with_capacity(layer.len() * 2);
        for st in &layer {
            succ.clear();
            sys.successors(st, &mut succ);
            next.extend(succ.drain(..));
        }
        layer = next;
    }
    out
}

/// Whether the consensus assertion (at the last state) is valid.
pub fn consensus_valid(scenario: &DynamicScenario) -> bool {
    *per_state(scenario).last().expect("at least one state")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_results_hold() {
        // Result 1: compliant agents reach consensus.
        assert!(consensus_valid(&DynamicScenario::two_agent_compliant()));
        assert!(consensus_valid(
            &DynamicScenario::three_agent_line_compliant()
        ));
        assert!(consensus_valid(&DynamicScenario::paper_scope_sound()));
        // Result 2: a rebidding agent breaks it.
        assert!(!consensus_valid(&DynamicScenario::two_agent_rebid_attack()));
        // The paper scope's four states are too few to drain the buffer.
        assert!(!consensus_valid(&DynamicScenario::paper_scope()));
    }

    #[test]
    fn e8_thresholds_are_the_earliest_valid_states() {
        let first = |s: &DynamicScenario| per_state(s).iter().position(|&v| v);
        assert_eq!(first(&DynamicScenario::at_scope(2, 2)), Some(2));
        assert_eq!(first(&DynamicScenario::at_scope(3, 2)), Some(7));
        assert_eq!(first(&DynamicScenario::at_scope(3, 3)), Some(8));
        // Consensus, once reached by every execution, is never lost.
        for s in [
            DynamicScenario::at_scope(2, 2),
            DynamicScenario::at_scope(3, 2),
        ] {
            let v = per_state(&s);
            let k = v.iter().position(|&x| x).unwrap();
            assert!(v[k..].iter().all(|&x| x));
        }
    }

    #[test]
    fn four_agents_with_twelve_states_are_refuted() {
        let s = DynamicScenario {
            states: 12,
            ..DynamicScenario::at_scope(4, 2)
        };
        assert!(!consensus_valid(&s));
    }
}
