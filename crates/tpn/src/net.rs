//! The timed event graph data structure.

use std::fmt;

/// Identifier of a transition within its [`TimedEventGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(pub u32);

/// Identifier of a place within its [`TimedEventGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub u32);

/// A transition: the use of a physical resource for `firing_time` time units
/// (a computation of a stage on a processor, or the transfer of a file over
/// a link).
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Firing duration (holding time), ≥ 0 and finite.
    pub firing_time: f64,
    /// Human-readable label, e.g. `"S1 on P2 (row 3)"`.
    pub label: String,
}

/// A place: a dependence between two transitions. Event-graph property:
/// exactly one input (`pre`) and one output (`post`) transition — enforced
/// structurally, a place stores exactly one of each.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// The transition producing tokens into this place.
    pub pre: TransitionId,
    /// The transition consuming tokens from this place.
    pub post: TransitionId,
    /// Initial marking.
    pub tokens: u32,
    /// Human-readable label.
    pub label: String,
}

/// A timed Petri net with the event-graph property.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimedEventGraph {
    transitions: Vec<Transition>,
    places: Vec<Place>,
}

impl TimedEventGraph {
    /// Creates an empty net.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty net with reserved capacity.
    pub fn with_capacity(transitions: usize, places: usize) -> Self {
        TimedEventGraph {
            transitions: Vec::with_capacity(transitions),
            places: Vec::with_capacity(places),
        }
    }

    /// Removes all transitions and places, **keeping both buffers'
    /// capacity** — the arena primitive behind
    /// `repwf_core::tpn_build::build_tpn_into`, which rebuilds a mapping's
    /// TPN into the same net thousands of times without re-allocating.
    pub fn clear(&mut self) {
        self.transitions.clear();
        self.places.clear();
    }

    /// Adds a transition with the given firing time. Panics if the time is
    /// negative or not finite.
    pub fn add_transition(&mut self, firing_time: f64, label: impl Into<String>) -> TransitionId {
        assert!(
            firing_time.is_finite() && firing_time >= 0.0,
            "firing time must be finite and non-negative, got {firing_time}"
        );
        let id = TransitionId(self.transitions.len() as u32);
        self.transitions.push(Transition { firing_time, label: label.into() });
        id
    }

    /// Overwrites the firing time of transition `t` in place, returning the
    /// previous value. Panics like [`TimedEventGraph::add_transition`] on a
    /// negative or non-finite time.
    ///
    /// This is the delta-update primitive behind incremental period
    /// analysis: a shape-preserving mapping change (e.g. swapping the
    /// processors of two replica slots) re-times transitions of an
    /// otherwise identical net, so callers patch firing times instead of
    /// clearing and rebuilding the whole net. Note that the transition's
    /// label is left untouched — patch only nets built without labels (or
    /// accept stale ones).
    pub fn patch(&mut self, t: TransitionId, firing_time: f64) -> f64 {
        assert!(
            firing_time.is_finite() && firing_time >= 0.0,
            "firing time must be finite and non-negative, got {firing_time}"
        );
        let slot = &mut self.transitions[t.0 as usize].firing_time;
        std::mem::replace(slot, firing_time)
    }

    /// Adds a place from `pre` to `post` with `tokens` initial tokens.
    pub fn add_place(
        &mut self,
        pre: TransitionId,
        post: TransitionId,
        tokens: u32,
        label: impl Into<String>,
    ) -> PlaceId {
        assert!((pre.0 as usize) < self.transitions.len(), "pre transition out of range");
        assert!((post.0 as usize) < self.transitions.len(), "post transition out of range");
        let id = PlaceId(self.places.len() as u32);
        self.places.push(Place { pre, post, tokens, label: label.into() });
        id
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// All places.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// A transition by id.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.0 as usize]
    }

    /// A place by id.
    pub fn place(&self, id: PlaceId) -> &Place {
        &self.places[id.0 as usize]
    }

    /// Total initial marking.
    pub fn total_tokens(&self) -> u64 {
        self.places.iter().map(|p| u64::from(p.tokens)).sum()
    }

    /// Input places of each transition: `inputs[t]` lists place indices with
    /// `post == t`.
    pub fn input_places(&self) -> Vec<Vec<u32>> {
        let mut inputs = vec![Vec::new(); self.transitions.len()];
        for (i, p) in self.places.iter().enumerate() {
            inputs[p.post.0 as usize].push(i as u32);
        }
        inputs
    }

    /// Extracts the sub-net induced by a transition subset, dropping places
    /// with an endpoint outside the subset. Returns the sub-net and the map
    /// `old transition id → new transition id`.
    ///
    /// This is how the paper's Figures 9 and 10 (per-communication sub-TPNs)
    /// are produced: restrict the full net to one column of transitions.
    pub fn restrict(&self, keep: &[TransitionId]) -> (TimedEventGraph, Vec<Option<TransitionId>>) {
        let mut map: Vec<Option<TransitionId>> = vec![None; self.transitions.len()];
        let mut sub = TimedEventGraph::with_capacity(keep.len(), self.places.len());
        for &old in keep {
            let t = self.transition(old);
            let new = sub.add_transition(t.firing_time, t.label.clone());
            map[old.0 as usize] = Some(new);
        }
        for p in &self.places {
            if let (Some(pre), Some(post)) = (map[p.pre.0 as usize], map[p.post.0 as usize]) {
                sub.add_place(pre, post, p.tokens, p.label.clone());
            }
        }
        (sub, map)
    }

    /// Structural sanity checks: every referenced transition exists (by
    /// construction) and the net is non-trivially connected. Returns a list
    /// of diagnostics (empty = OK).
    pub fn lint(&self) -> Vec<String> {
        let mut out = Vec::new();
        let inputs = self.input_places();
        for (t, ins) in inputs.iter().enumerate() {
            if ins.is_empty() {
                out.push(format!(
                    "transition {} ({:?}) has no input place: it can fire infinitely fast",
                    t, self.transitions[t].label
                ));
            }
        }
        out
    }
}

impl fmt::Display for TimedEventGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TimedEventGraph: {} transitions, {} places, {} tokens",
            self.num_transitions(),
            self.num_places(),
            self.total_tokens()
        )?;
        for (i, t) in self.transitions.iter().enumerate() {
            writeln!(f, "  T{i}: {} (time {})", t.label, t.firing_time)?;
        }
        for p in &self.places {
            writeln!(f, "  P: T{} -> T{} tokens={} ({})", p.pre.0, p.post.0, p.tokens, p.label)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_pong() -> TimedEventGraph {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(2.0, "b");
        net.add_place(a, b, 0, "ab");
        net.add_place(b, a, 1, "ba");
        net
    }

    #[test]
    fn counts() {
        let net = ping_pong();
        assert_eq!(net.num_transitions(), 2);
        assert_eq!(net.num_places(), 2);
        assert_eq!(net.total_tokens(), 1);
    }

    #[test]
    fn input_places_indexed_by_post() {
        let net = ping_pong();
        let inputs = net.input_places();
        assert_eq!(inputs[0], vec![1]); // "ba" feeds a
        assert_eq!(inputs[1], vec![0]);
    }

    #[test]
    fn restrict_drops_cross_places() {
        let mut net = ping_pong();
        let c = net.add_transition(3.0, "c");
        net.add_place(TransitionId(0), c, 0, "ac");
        let (sub, map) = net.restrict(&[TransitionId(0), TransitionId(1)]);
        assert_eq!(sub.num_transitions(), 2);
        assert_eq!(sub.num_places(), 2); // "ac" dropped
        assert_eq!(map[2], None);
    }

    #[test]
    fn lint_flags_sources() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        let b = net.add_transition(1.0, "b");
        net.add_place(a, b, 0, "ab");
        let lint = net.lint();
        assert_eq!(lint.len(), 1);
        assert!(lint[0].contains("no input place"));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let mut net = TimedEventGraph::new();
        net.add_transition(-1.0, "bad");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_place_rejected() {
        let mut net = TimedEventGraph::new();
        let a = net.add_transition(1.0, "a");
        net.add_place(a, TransitionId(7), 0, "bad");
    }
}
