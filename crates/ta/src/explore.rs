//! Symbolic (zone-based) semantics of networks of timed automata.
//!
//! States pair a discrete part (location vector + variable store) with a
//! zone; successor computation implements UPPAAL's semantics for binary
//! and broadcast channels, urgent channels, and urgent/committed
//! locations. Explored zones are kept delay-closed (`up ∧ invariant`) and
//! extrapolated with per-clock maximal constants so the zone graph is
//! finite.

use crate::model::{
    AutomatonId, ChannelKind, ClockAtom, Edge, LocationId, LocationKind, Network, Sync, SyncDir,
};
use std::ops::ControlFlow;
use tempo_dbm::{Dbm, Federation};
use tempo_expr::Store;

/// A symbolic state of a network: one location per automaton, a variable
/// store, and a clock zone.
#[derive(Debug, Clone, PartialEq)]
pub struct SymState {
    /// Current location of each automaton, indexed by automaton id.
    pub locs: Vec<LocationId>,
    /// Values of all discrete variables.
    pub store: Store,
    /// The clock zone (delay-closed and extrapolated during exploration).
    pub zone: Dbm,
}

impl SymState {
    /// The discrete part, used as a hash key in passed/waiting lists.
    #[must_use]
    pub fn discrete(&self) -> (Vec<LocationId>, Store) {
        (self.locs.clone(), self.store.clone())
    }

    /// Whether automaton `a` is at location `l`.
    #[must_use]
    pub fn is_at(&self, a: AutomatonId, l: LocationId) -> bool {
        self.locs[a.index()] == l
    }
}

/// How a successor state was produced (for traces and diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// An internal (unsynchronized) edge of one automaton.
    Internal {
        /// The moving automaton.
        automaton: AutomatonId,
        /// Index of the taken edge in that automaton's edge list.
        edge: usize,
    },
    /// A binary or broadcast synchronization.
    Sync {
        /// Channel name with resolved index, e.g. `appr[2]`.
        label: String,
        /// The sending automaton and edge index.
        sender: (AutomatonId, usize),
        /// The receiving automata and edge indices.
        receivers: Vec<(AutomatonId, usize)>,
    },
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Internal { automaton, edge } => {
                write!(f, "tau(a{}, e{})", automaton.index(), edge)
            }
            Action::Sync { label, .. } => write!(f, "{label}"),
        }
    }
}

/// Per receiving automaton: the enabled receiving edges as
/// (edge index, selected binding) pairs.
type ReceiverChoices = Vec<(usize, Vec<i64>)>;

/// One automaton's part in a joint transition: the automaton, its edge
/// and the edge's `select` binding.
type Participant<'a> = (AutomatonId, &'a Edge, &'a [i64]);

/// Buffers for a location vector's LU bounds, reused across the
/// successors of one state.
#[derive(Default)]
struct LuScratch {
    lower: Vec<i64>,
    upper: Vec<i64>,
}

/// The symbolic successor generator for a network.
///
/// ```
/// use tempo_ta::{NetworkBuilder, Explorer};
/// let mut b = NetworkBuilder::new();
/// let mut a = b.automaton("A");
/// let l0 = a.location("L0");
/// let l1 = a.location("L1");
/// a.edge(l0, l1).done();
/// a.done();
/// let net = b.build();
/// let exp = Explorer::new(&net);
/// let init = exp.initial_state();
/// assert_eq!(exp.successors(&init).len(), 1);
/// ```
#[derive(Debug)]
pub struct Explorer<'n> {
    net: &'n Network,
    max_consts: Vec<i64>,
    /// When `false`, zones are not extrapolated (for the extrapolation
    /// ablation bench; termination is then not guaranteed in general).
    extrapolate: bool,
    /// Per-location LU bounds; when present, zones are widened with
    /// `Extra_LU` over the state's location vector instead of the
    /// global maximal-constant `Extra_M`.
    lu: Option<crate::flow::NetworkLu>,
}

impl<'n> Explorer<'n> {
    /// Creates an explorer with extrapolation constants derived from the
    /// network's guards and invariants.
    #[must_use]
    pub fn new(net: &'n Network) -> Self {
        Self::with_extra_constants(net, &[])
    }

    /// Creates an explorer whose extrapolation constants additionally
    /// cover clock constants appearing in properties.
    #[must_use]
    pub fn with_extra_constants(net: &'n Network, extra: &[ClockAtom]) -> Self {
        let mut max_consts = net.max_constants();
        for atom in extra {
            if atom.bound.is_inf() {
                continue;
            }
            let c = atom.bound.constant().abs();
            if !atom.i.is_ref() {
                max_consts[atom.i.index()] = max_consts[atom.i.index()].max(c);
            }
            if !atom.j.is_ref() {
                max_consts[atom.j.index()] = max_consts[atom.j.index()].max(c);
            }
        }
        Explorer {
            max_consts,
            net,
            extrapolate: true,
            lu: None,
        }
    }

    /// Disables maximal-constant extrapolation (ablation only).
    #[must_use]
    pub fn without_extrapolation(mut self) -> Self {
        self.extrapolate = false;
        self
    }

    /// Switches extrapolation to per-location `Extra_LU` with the given
    /// solved bound tables. Sound for reachability: the LU abstraction
    /// preserves reachability of every location/data configuration and
    /// of all protected clock constraints, but coarsens zones — do not
    /// combine with exact-zone analyses (deadlock federations,
    /// liveness).
    #[must_use]
    pub fn with_lu(mut self, lu: crate::flow::NetworkLu) -> Self {
        self.lu = Some(lu);
        self
    }

    /// The network being explored.
    #[must_use]
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The initial symbolic state (all clocks `0`, delay-closed).
    ///
    /// # Panics
    ///
    /// Panics if the initial invariant is unsatisfiable.
    #[must_use]
    pub fn initial_state(&self) -> SymState {
        let locs: Vec<LocationId> = self.net.automata.iter().map(|a| a.initial).collect();
        let store = self.net.decls.initial_store();
        let mut zone = Dbm::zero(self.net.dim());
        assert!(
            self.apply_invariants(&locs, &mut zone),
            "initial state violates invariants"
        );
        let mut state = SymState { locs, store, zone };
        self.delay_close(&mut state, &mut LuScratch::default());
        state
    }

    /// Conjoins the invariants of all current locations onto the zone.
    /// Returns `false` if the zone became empty.
    fn apply_invariants(&self, locs: &[LocationId], zone: &mut Dbm) -> bool {
        for (a, &l) in self.net.automata.iter().zip(locs) {
            for atom in &a.locations[l.index()].invariant {
                if !zone.constrain(atom.i, atom.j, atom.bound) {
                    return false;
                }
            }
        }
        true
    }

    /// The invariant zone of a location vector (starting from universe).
    #[must_use]
    pub fn invariant_zone(&self, locs: &[LocationId]) -> Dbm {
        let mut z = Dbm::universe(self.net.dim());
        self.apply_invariants(locs, &mut z);
        z
    }

    /// Whether delay is permitted in this discrete configuration: no
    /// automaton is in an urgent or committed location and no urgent
    /// synchronization is enabled.
    #[must_use]
    pub fn delay_allowed(&self, state: &SymState) -> bool {
        for (a, &l) in self.net.automata.iter().zip(&state.locs) {
            if a.locations[l.index()].kind != LocationKind::Normal {
                return false;
            }
        }
        !self.urgent_sync_enabled(state)
    }

    /// Whether some urgent-channel synchronization is enabled (urgent
    /// edges carry no clock guards, so enabledness is data-only).
    fn urgent_sync_enabled(&self, state: &SymState) -> bool {
        for (ai, a) in self.net.automata.iter().enumerate() {
            for e in a.edges.iter().filter(|e| e.from == state.locs[ai]) {
                let Some(sync) = &e.sync else { continue };
                if sync.dir != SyncDir::Send || !self.net.channels[sync.channel.index()].urgent {
                    continue;
                }
                let mut sels = Selections::new(&e.selects);
                while let Some(sel) = sels.next_binding() {
                    let Some(idx) = self.resolve_index(sync, state, sel) else {
                        continue;
                    };
                    if !self.data_guard_holds(e, state, sel) {
                        continue;
                    }
                    // Find a matching enabled receiver.
                    for (bi, b) in self.net.automata.iter().enumerate() {
                        if bi == ai {
                            continue;
                        }
                        for r in b.edges.iter().filter(|r| r.from == state.locs[bi]) {
                            let Some(rs) = &r.sync else { continue };
                            if rs.dir != SyncDir::Recv || rs.channel != sync.channel {
                                continue;
                            }
                            let mut rsels = Selections::new(&r.selects);
                            while let Some(rsel) = rsels.next_binding() {
                                if self.resolve_index(rs, state, rsel) == Some(idx)
                                    && self.data_guard_holds(r, state, rsel)
                                {
                                    return true;
                                }
                            }
                        }
                    }
                }
            }
        }
        false
    }

    fn resolve_index(&self, sync: &Sync, state: &SymState, sel: &[i64]) -> Option<i64> {
        let idx = sync.index.eval(&self.net.decls, &state.store, sel).ok()?;
        let size = self.net.channels[sync.channel.index()].size as i64;
        (0..size).contains(&idx).then_some(idx)
    }

    fn data_guard_holds(&self, e: &Edge, state: &SymState, sel: &[i64]) -> bool {
        e.guard_data
            .eval_bool(&self.net.decls, &state.store, sel)
            .unwrap_or(false)
    }

    /// Applies `up ∧ invariant` (if delay is allowed) and extrapolation.
    fn delay_close(&self, state: &mut SymState, scratch: &mut LuScratch) {
        if self.delay_allowed(state) {
            state.zone.up();
            self.apply_invariants(&state.locs, &mut state.zone);
        }
        if self.extrapolate {
            match &self.lu {
                Some(lu) => {
                    let LuScratch { lower, upper } = scratch;
                    lu.state_bounds(&state.locs, lower, upper);
                    state.zone.extrapolate_lu(lower, upper);
                }
                None => state.zone.extrapolate(&self.max_consts),
            }
        }
    }

    /// When any automaton is in a committed location, only transitions
    /// involving a committed automaton may fire.
    fn committed_set(&self, state: &SymState) -> Vec<bool> {
        self.net
            .automata
            .iter()
            .zip(&state.locs)
            .map(|(a, &l)| a.locations[l.index()].kind == LocationKind::Committed)
            .collect()
    }

    /// Whether any automaton currently occupies a committed location
    /// (used by partial-order reduction to fall back to full expansion:
    /// committed semantics restricts which automata may fire).
    pub(crate) fn any_committed(&self, state: &SymState) -> bool {
        self.committed_set(state).iter().any(|&c| c)
    }

    /// Successors produced by the internal (unsynchronized) edges of a
    /// single automaton. Used by ample-set partial-order reduction; the
    /// caller guarantees no committed location is active.
    pub(crate) fn internal_successors(
        &self,
        state: &SymState,
        ai: usize,
    ) -> Vec<(Action, SymState)> {
        let a = &self.net.automata[ai];
        let mut out = Vec::new();
        let mut scratch = LuScratch::default();
        for (ei, e) in a.edges.iter().enumerate() {
            if e.from != state.locs[ai] || e.sync.is_some() {
                continue;
            }
            let mut sels = Selections::new(&e.selects);
            while let Some(sel) = sels.next_binding() {
                if let Some(next) = self.fire(state, &[(AutomatonId(ai), e, sel)], &mut scratch) {
                    out.push((
                        Action::Internal {
                            automaton: AutomatonId(ai),
                            edge: ei,
                        },
                        next,
                    ));
                }
            }
        }
        out
    }

    /// Computes all symbolic successors with their actions. Successor
    /// zones are delay-closed and extrapolated; empty successors are
    /// dropped.
    #[must_use]
    pub fn successors(&self, state: &SymState) -> Vec<(Action, SymState)> {
        let committed = self.committed_set(state);
        let any_committed = committed.iter().any(|&c| c);
        let mut out = Vec::new();
        let mut scratch = LuScratch::default();

        for (ai, a) in self.net.automata.iter().enumerate() {
            for (ei, e) in a.edges.iter().enumerate() {
                if e.from != state.locs[ai] {
                    continue;
                }
                match &e.sync {
                    None => {
                        if any_committed && !committed[ai] {
                            continue;
                        }
                        let mut sels = Selections::new(&e.selects);
                        while let Some(sel) = sels.next_binding() {
                            if let Some(next) =
                                self.fire(state, &[(AutomatonId(ai), e, sel)], &mut scratch)
                            {
                                out.push((
                                    Action::Internal {
                                        automaton: AutomatonId(ai),
                                        edge: ei,
                                    },
                                    next,
                                ));
                            }
                        }
                    }
                    Some(sync) if sync.dir == SyncDir::Send => {
                        let mut sels = Selections::new(&e.selects);
                        while let Some(sel) = sels.next_binding() {
                            let Some(idx) = self.resolve_index(sync, state, sel) else {
                                continue;
                            };
                            match self.net.channels[sync.channel.index()].kind {
                                ChannelKind::Binary => self.binary_syncs(
                                    state,
                                    &committed,
                                    any_committed,
                                    (ai, ei, e, sel),
                                    sync,
                                    idx,
                                    &mut out,
                                    &mut scratch,
                                ),
                                ChannelKind::Broadcast => self.broadcast_syncs(
                                    state,
                                    &committed,
                                    any_committed,
                                    (ai, ei, e, sel),
                                    sync,
                                    idx,
                                    &mut out,
                                    &mut scratch,
                                ),
                            }
                        }
                    }
                    Some(_) => {} // receivers are matched from the sender side
                }
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn binary_syncs(
        &self,
        state: &SymState,
        committed: &[bool],
        any_committed: bool,
        sender: (usize, usize, &Edge, &[i64]),
        sync: &Sync,
        idx: i64,
        out: &mut Vec<(Action, SymState)>,
        scratch: &mut LuScratch,
    ) {
        let (ai, ei, e, sel) = sender;
        for (bi, b) in self.net.automata.iter().enumerate() {
            if bi == ai {
                continue;
            }
            if any_committed && !committed[ai] && !committed[bi] {
                continue;
            }
            for (ri, r) in b.edges.iter().enumerate() {
                if r.from != state.locs[bi] {
                    continue;
                }
                let Some(rs) = &r.sync else { continue };
                if rs.dir != SyncDir::Recv || rs.channel != sync.channel {
                    continue;
                }
                let mut rsels = Selections::new(&r.selects);
                while let Some(rsel) = rsels.next_binding() {
                    if self.resolve_index(rs, state, rsel) != Some(idx) {
                        continue;
                    }
                    let participants = [(AutomatonId(ai), e, sel), (AutomatonId(bi), r, rsel)];
                    if let Some(next) = self.fire(state, &participants, scratch) {
                        out.push((
                            Action::Sync {
                                label: format!(
                                    "{}[{}]",
                                    self.net.channels[sync.channel.index()].name,
                                    idx
                                ),
                                sender: (AutomatonId(ai), ei),
                                receivers: vec![(AutomatonId(bi), ri)],
                            },
                            next,
                        ));
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn broadcast_syncs(
        &self,
        state: &SymState,
        committed: &[bool],
        any_committed: bool,
        sender: (usize, usize, &Edge, &[i64]),
        sync: &Sync,
        idx: i64,
        out: &mut Vec<(Action, SymState)>,
        scratch: &mut LuScratch,
    ) {
        let (ai, ei, e, sel) = sender;
        // For each other automaton, collect its enabled receiving edges
        // (data guards only; validated at build time).
        let mut choices: Vec<(usize, ReceiverChoices)> = Vec::new();
        for (bi, b) in self.net.automata.iter().enumerate() {
            if bi == ai {
                continue;
            }
            let mut enabled = Vec::new();
            for (ri, r) in b.edges.iter().enumerate() {
                if r.from != state.locs[bi] {
                    continue;
                }
                let Some(rs) = &r.sync else { continue };
                if rs.dir != SyncDir::Recv || rs.channel != sync.channel {
                    continue;
                }
                let mut rsels = Selections::new(&r.selects);
                while let Some(rsel) = rsels.next_binding() {
                    if self.resolve_index(rs, state, rsel) == Some(idx)
                        && self.data_guard_holds(r, state, rsel)
                    {
                        enabled.push((ri, rsel.to_vec()));
                    }
                }
            }
            if !enabled.is_empty() {
                choices.push((bi, enabled));
            }
        }
        if any_committed && !committed[ai] && !choices.iter().any(|(bi, _)| committed[*bi]) {
            return;
        }
        // Every automaton with an enabled receiver participates with one
        // nondeterministically chosen edge: enumerate the combinations.
        let mut combo = vec![0_usize; choices.len()];
        let mut participants: Vec<Participant> = Vec::with_capacity(choices.len() + 1);
        loop {
            participants.clear();
            participants.push((AutomatonId(ai), e, sel));
            let mut receivers = Vec::new();
            for (ci, (bi, enabled)) in choices.iter().enumerate() {
                let (ri, rsel) = &enabled[combo[ci]];
                participants.push((AutomatonId(*bi), &self.net.automata[*bi].edges[*ri], rsel));
                receivers.push((AutomatonId(*bi), *ri));
            }
            if let Some(next) = self.fire(state, &participants, scratch) {
                out.push((
                    Action::Sync {
                        label: format!(
                            "{}[{}]!!",
                            self.net.channels[sync.channel.index()].name,
                            idx
                        ),
                        sender: (AutomatonId(ai), ei),
                        receivers,
                    },
                    next,
                ));
            }
            // Advance the combination counter.
            let mut pos = 0;
            loop {
                if pos == choices.len() {
                    return;
                }
                combo[pos] += 1;
                if combo[pos] < choices[pos].1.len() {
                    break;
                }
                combo[pos] = 0;
                pos += 1;
            }
        }
    }

    /// Fires a joint transition of the given participants (in order:
    /// sender first). Returns the delay-closed successor, or `None` if any
    /// guard, update or invariant fails.
    fn fire(
        &self,
        state: &SymState,
        participants: &[Participant],
        scratch: &mut LuScratch,
    ) -> Option<SymState> {
        // 1. Data guards (on the pre-store).
        for (_, e, sel) in participants {
            if !self.data_guard_holds(e, state, sel) {
                return None;
            }
        }
        // 2. Clock guards.
        let mut zone = state.zone.clone();
        for (_, e, _) in participants {
            for atom in &e.guard_clocks {
                if !zone.constrain(atom.i, atom.j, atom.bound) {
                    return None;
                }
            }
        }
        // 3. Updates (sender first, as in UPPAAL); reset values are
        //    evaluated over the evolving store at each participant's turn.
        let mut store = state.store.clone();
        let mut locs = state.locs.clone();
        for (aid, e, sel) in participants {
            for (clock, value) in &e.resets {
                let v = value.eval(&self.net.decls, &store, sel).ok()?;
                if v < 0 {
                    return None;
                }
                zone.reset(*clock, v);
            }
            e.update.execute(&self.net.decls, &mut store, sel).ok()?;
            locs[aid.index()] = e.to;
        }
        // 4. Target invariants.
        if !self.apply_invariants(&locs, &mut zone) {
            return None;
        }
        let mut next = SymState { locs, store, zone };
        self.delay_close(&mut next, scratch);
        if next.zone.is_empty() {
            return None;
        }
        Some(next)
    }

    /// The federation of valuations in `state.zone` from which **no**
    /// action transition is possible now or after any legal delay: the
    /// symbolic deadlock check of `A[] not deadlock`.
    ///
    /// The returned federation is empty iff the state is deadlock-free.
    #[must_use]
    pub fn deadlock_federation(&self, state: &SymState) -> Federation {
        let dim = self.net.dim();
        let mut escape = Federation::empty(dim);
        let delay = self.delay_allowed(state);
        let covered = self.visit_enabled_guard_zones(state, |mut zone| {
            if delay {
                // Points that can delay (within the state's delay-closed
                // zone) into the guard.
                zone.down();
            }
            // One piece covering the whole state leaves nothing to
            // subtract: the state is deadlock-free.
            if state.zone.is_subset_of(&zone) {
                return ControlFlow::Break(());
            }
            if zone.intersect(&state.zone) {
                escape.add_zone(zone);
            }
            ControlFlow::Continue(())
        });
        if covered.is_break() {
            return Federation::empty(dim);
        }
        Federation::from_zones(dim, vec![state.zone.clone()]).subtract(&escape)
    }

    /// Passes `visit` the guard zone (within `state.zone`) of each action
    /// transition enabled from the state's discrete part, with
    /// target-invariant feasibility folded in, until `visit` breaks.
    fn visit_enabled_guard_zones(
        &self,
        state: &SymState,
        mut visit: impl FnMut(Dbm) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let committed = self.committed_set(state);
        let any_committed = committed.iter().any(|&c| c);
        for (ai, a) in self.net.automata.iter().enumerate() {
            for e in a.edges.iter().filter(|e| e.from == state.locs[ai]) {
                match &e.sync {
                    None => {
                        if any_committed && !committed[ai] {
                            continue;
                        }
                        let mut sels = Selections::new(&e.selects);
                        while let Some(sel) = sels.next_binding() {
                            if let Some(z) =
                                self.edge_source_zone(state, &[(AutomatonId(ai), e, sel)])
                            {
                                visit(z)?;
                            }
                        }
                    }
                    Some(sync) if sync.dir == SyncDir::Send => {
                        let mut sels = Selections::new(&e.selects);
                        while let Some(sel) = sels.next_binding() {
                            let Some(idx) = self.resolve_index(sync, state, sel) else {
                                continue;
                            };
                            match self.net.channels[sync.channel.index()].kind {
                                ChannelKind::Binary => {
                                    for (bi, b) in self.net.automata.iter().enumerate() {
                                        if bi == ai
                                            || (any_committed && !committed[ai] && !committed[bi])
                                        {
                                            continue;
                                        }
                                        for r in b.edges.iter().filter(|r| r.from == state.locs[bi])
                                        {
                                            let Some(rs) = &r.sync else { continue };
                                            if rs.dir != SyncDir::Recv || rs.channel != sync.channel
                                            {
                                                continue;
                                            }
                                            let mut rsels = Selections::new(&r.selects);
                                            while let Some(rsel) = rsels.next_binding() {
                                                if self.resolve_index(rs, state, rsel) != Some(idx)
                                                {
                                                    continue;
                                                }
                                                if let Some(z) = self.edge_source_zone(
                                                    state,
                                                    &[
                                                        (AutomatonId(ai), e, sel),
                                                        (AutomatonId(bi), r, rsel),
                                                    ],
                                                ) {
                                                    visit(z)?;
                                                }
                                            }
                                        }
                                    }
                                }
                                ChannelKind::Broadcast => {
                                    // A broadcast sender is never blocked;
                                    // receivers join dynamically.
                                    if any_committed && !committed[ai] {
                                        continue;
                                    }
                                    if let Some(z) =
                                        self.edge_source_zone(state, &[(AutomatonId(ai), e, sel)])
                                    {
                                        visit(z)?;
                                    }
                                }
                            }
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The subset of `state.zone` from which the joint edge can be taken:
    /// guards conjoined and target-invariant satisfiability reflected back
    /// onto the source valuations (resets are to constants, so invariant
    /// atoms over reset clocks become constant checks and atoms over
    /// unreset clocks remain source constraints).
    fn edge_source_zone(&self, state: &SymState, participants: &[Participant]) -> Option<Dbm> {
        for (_, e, sel) in participants {
            if !self.data_guard_holds(e, state, sel) {
                return None;
            }
        }
        let mut zone = state.zone.clone();
        for (_, e, _) in participants {
            for atom in &e.guard_clocks {
                if !zone.constrain(atom.i, atom.j, atom.bound) {
                    return None;
                }
            }
        }
        // Collect reset values (pre-store approximation for the data part;
        // exact for constant resets, which is all our models use). A clock
        // reset twice keeps its last value.
        let mut reset_to: Vec<(usize, i64)> = Vec::new();
        let mut locs = state.locs.clone();
        for (aid, e, sel) in participants {
            for (clock, value) in &e.resets {
                let v = value.eval(&self.net.decls, &state.store, sel).ok()?;
                reset_to.push((clock.index(), v));
            }
            locs[aid.index()] = e.to;
        }
        let reset_value = |clock: usize| {
            reset_to
                .iter()
                .rev()
                .find(|&&(c, _)| c == clock)
                .map(|&(_, v)| v)
        };
        for (a, &l) in self.net.automata.iter().zip(&locs) {
            for atom in &a.locations[l.index()].invariant {
                let vi = reset_value(atom.i.index());
                let vj = reset_value(atom.j.index());
                match (vi, vj) {
                    (Some(vi), Some(vj)) => {
                        if !atom.bound.satisfied_by(vi - vj) {
                            return None;
                        }
                    }
                    (Some(vi), None) => {
                        // vi - x_j ≺ c  ⇒  0 - x_j ≺ c - vi
                        let b = atom.bound + tempo_dbm::Bound::le(-vi);
                        if !zone.constrain(tempo_dbm::Clock::REF, atom.j, b) {
                            return None;
                        }
                    }
                    (None, Some(vj)) => {
                        // x_i - vj ≺ c  ⇒  x_i - 0 ≺ c + vj
                        let b = atom.bound + tempo_dbm::Bound::le(vj);
                        if !zone.constrain(atom.i, tempo_dbm::Clock::REF, b) {
                            return None;
                        }
                    }
                    (None, None) => {
                        if !zone.constrain(atom.i, atom.j, atom.bound) {
                            return None;
                        }
                    }
                }
            }
        }
        (!zone.is_empty()).then_some(zone)
    }
}

/// Cursor over the cartesian product of `select` ranges, in the order
/// that increments the first range fastest. Every binding is produced in
/// the cursor's one buffer. The product is empty if any range is.
struct Selections<'r> {
    ranges: &'r [(i64, i64)],
    current: Vec<i64>,
    /// Whether `current` holds a binding not yet handed out.
    pending: bool,
}

impl<'r> Selections<'r> {
    fn new(ranges: &'r [(i64, i64)]) -> Self {
        if ranges.iter().any(|(lo, hi)| lo > hi) {
            return Selections {
                ranges: &[],
                current: Vec::new(),
                pending: false,
            };
        }
        Selections {
            ranges,
            current: ranges.iter().map(|&(lo, _)| lo).collect(),
            pending: true,
        }
    }

    /// The next binding, or `None` once every binding was produced.
    fn next_binding(&mut self) -> Option<&[i64]> {
        if self.pending {
            self.pending = false;
            return Some(&self.current);
        }
        for (v, &(lo, hi)) in self.current.iter_mut().zip(self.ranges) {
            if *v < hi {
                *v += 1;
                return Some(&self.current);
            }
            *v = lo;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::model::NetworkBuilder;
    use tempo_expr::Expr;

    /// The deadlock federation by full subtraction of every escape piece,
    /// with no early exit.
    fn deadlock_by_subtraction(exp: &Explorer, state: &SymState) -> Federation {
        let dim = exp.net.dim();
        let mut escape = Federation::empty(dim);
        let delay = exp.delay_allowed(state);
        let mut zones = Vec::new();
        let all = exp.visit_enabled_guard_zones(state, |z| {
            zones.push(z);
            ControlFlow::Continue(())
        });
        assert!(all.is_continue());
        for zone in zones {
            let mut fed = Federation::from_zones(dim, vec![zone]);
            if delay {
                fed.down();
            }
            fed = fed.intersection_zone(&state.zone);
            escape.union_with(&fed);
        }
        Federation::from_zones(dim, vec![state.zone.clone()]).subtract(&escape)
    }

    #[test]
    fn covered_deadlock_exit_matches_full_subtraction() {
        for (name, net, deadlocked) in [
            ("train-gate(4)", fixtures::train_gate(4), false),
            ("sink", fixtures::sink(), true),
            ("late guard", fixtures::late_guard(), true),
            ("empty select", fixtures::empty_select(), true),
        ] {
            let (states, _) = crate::ModelChecker::new(&net).reachable_states();
            let exp = Explorer::new(&net);
            let mut dead = 0;
            for s in &states {
                let fed = exp.deadlock_federation(s);
                assert_eq!(fed, deadlock_by_subtraction(&exp, s), "{name}: {s:?}");
                dead += usize::from(!fed.is_empty());
            }
            assert_eq!(
                dead > 0,
                deadlocked,
                "{name}: {dead} of {} states",
                states.len()
            );
        }
    }

    #[test]
    fn select_iter_enumerates_product() {
        let collect = |ranges: &[(i64, i64)]| {
            let mut sels = Selections::new(ranges);
            let mut items = Vec::new();
            while let Some(sel) = sels.next_binding() {
                items.push(sel.to_vec());
            }
            items
        };
        let items = collect(&[(0, 1), (5, 6)]);
        assert_eq!(items, vec![vec![0, 5], vec![1, 5], vec![0, 6], vec![1, 6]]);
        let empty = collect(&[]);
        assert_eq!(empty, vec![Vec::<i64>::new()]);
        // One empty range empties the product, wherever it stands.
        assert!(collect(&[(0, 1), (5, 3)]).is_empty());
        assert!(collect(&[(5, 3), (0, 1)]).is_empty());
        assert!(collect(&[(2, 1)]).is_empty());
    }

    #[test]
    fn internal_edge_with_guard_and_reset() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location_with_invariant("L1", vec![ClockAtom::le(x, 3)]);
        a.edge(l0, l1)
            .guard_clock(ClockAtom::ge(x, 2))
            .reset(x, 0)
            .done();
        a.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        let succs = exp.successors(&init);
        assert_eq!(succs.len(), 1);
        let (_, next) = &succs[0];
        assert_eq!(next.locs[0], LocationId(1));
        // After reset and delay-closure with invariant x <= 3.
        assert!(next.zone.contains(&[0, 0]));
        assert!(next.zone.contains(&[0, 3]));
        assert!(!next.zone.contains(&[0, 4]));
    }

    #[test]
    fn binary_sync_requires_partner() {
        let mut b = NetworkBuilder::new();
        let c = b.channel("c");
        let mut a = b.automaton("Sender");
        let s0 = a.location("S0");
        let s1 = a.location("S1");
        a.edge(s0, s1).send(c).done();
        a.done();
        let net1 = b.build();
        let exp = Explorer::new(&net1);
        // No receiver: no successor.
        assert!(exp.successors(&exp.initial_state()).is_empty());

        let mut b = NetworkBuilder::new();
        let c = b.channel("c");
        let mut a = b.automaton("Sender");
        let s0 = a.location("S0");
        let s1 = a.location("S1");
        a.edge(s0, s1).send(c).done();
        a.done();
        let mut r = b.automaton("Receiver");
        let r0 = r.location("R0");
        let r1 = r.location("R1");
        r.edge(r0, r1).recv(c).done();
        r.done();
        let net2 = b.build();
        let exp = Explorer::new(&net2);
        let succs = exp.successors(&exp.initial_state());
        assert_eq!(succs.len(), 1);
        assert_eq!(succs[0].1.locs, vec![LocationId(1), LocationId(1)]);
    }

    #[test]
    fn committed_location_restricts_interleaving() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let a0 = a.location("A0");
        let ac = a.committed_location("AC");
        let a1 = a.location("A1");
        a.edge(a0, ac).done();
        a.edge(ac, a1).done();
        a.done();
        let mut o = b.automaton("Other");
        let o0 = o.location("O0");
        let o1 = o.location("O1");
        o.edge(o0, o1).done();
        o.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        // From (A0, O0): both A and Other can move.
        assert_eq!(exp.successors(&init).len(), 2);
        // Move A into the committed location.
        let committed_state = exp
            .successors(&init)
            .into_iter()
            .map(|(_, s)| s)
            .find(|s| s.locs[0] == ac)
            .expect("A can reach AC");
        // From (AC, O0): only A may move.
        let succs = exp.successors(&committed_state);
        assert_eq!(succs.len(), 1);
        assert_eq!(succs[0].1.locs[0], a1);
    }

    #[test]
    fn broadcast_reaches_all_enabled_receivers() {
        let mut b = NetworkBuilder::new();
        let bc = b.broadcast_channel("go");
        let flag = b.decls_mut().int("flag", 0, 1);
        let mut s = b.automaton("S");
        let s0 = s.location("S0");
        let s1 = s.location("S1");
        s.edge(s0, s1).send(bc).done();
        s.done();
        for (name, guard) in [
            ("R1", Expr::truth()),
            ("R2", Expr::var(flag).eq(Expr::konst(1))),
        ] {
            let mut r = b.automaton(name);
            let r0 = r.location("R0");
            let r1 = r.location("R1");
            r.edge(r0, r1).recv(bc).guard_data(guard).done();
            r.done();
        }
        let net = b.build();
        let exp = Explorer::new(&net);
        let succs = exp.successors(&exp.initial_state());
        // flag == 0: only R1 participates; sender still fires.
        assert_eq!(succs.len(), 1);
        let locs = &succs[0].1.locs;
        assert_eq!(locs[1], LocationId(1)); // R1 moved
        assert_eq!(locs[2], LocationId(0)); // R2 stayed
    }

    #[test]
    fn urgent_location_blocks_delay() {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("A");
        let u = a.urgent_location("U");
        let l1 = a.location("L1");
        a.edge(u, l1).done();
        a.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        // No delay in urgent locations: x stays 0.
        let _ = x;
        assert!(init.zone.contains(&[0, 0]));
        assert!(!init.zone.contains(&[0, 1]));
    }

    #[test]
    fn deadlock_federation_detects_stuck_states() {
        // L0 --(x<=2)--> L1; from x>2 onward the state is dead.
        let net = fixtures::late_guard();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        // The guard is reachable by delaying from every point <= 2, but the
        // zone is up-closed so points with x > 2 are present and stuck.
        let dead = exp.deadlock_federation(&init);
        assert!(!dead.is_empty());
        assert!(dead.contains(&[0, 3]));
        assert!(!dead.contains(&[0, 1]));
        // With an unbounded guard there is no deadlock.
        let mut b = NetworkBuilder::new();
        let _x = b.clock("x");
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).done();
        a.done();
        let net = b.build();
        let exp = Explorer::new(&net);
        assert!(exp.deadlock_federation(&exp.initial_state()).is_empty());
    }

    #[test]
    fn sym_state_queries() {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let aid = {
            a.edge(l0, l0).done();
            a.done()
        };
        let net = b.build();
        let exp = Explorer::new(&net);
        let init = exp.initial_state();
        assert!(init.is_at(aid, l0));
        let (locs, _) = init.discrete();
        assert_eq!(locs, vec![l0]);
    }
}
