//! State formulas: the atoms of UPPAAL's property language.
//!
//! A [`StateFormula`] is a boolean combination of location atoms
//! (`Train(0).Cross`), data constraints (`len == 0`) and clock constraints
//! (`x <= 10`). Satisfaction over a symbolic state is computed *exactly*
//! as the federation of satisfying valuations, so negation and clock
//! atoms are handled without approximation.

use crate::explore::SymState;
use crate::model::{AutomatonId, ClockAtom, LocationId, Network};
use tempo_dbm::{Dbm, Federation};
use tempo_expr::Expr;

/// A boolean state predicate over locations, data variables and clocks.
#[derive(Debug, Clone, PartialEq)]
pub enum StateFormula {
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
    /// Automaton `a` is at location `l`.
    At(AutomatonId, LocationId),
    /// A data predicate over the variable store (no clocks).
    Data(Expr),
    /// A clock constraint.
    Clock(ClockAtom),
    /// Negation.
    Not(Box<StateFormula>),
    /// Conjunction.
    And(Vec<StateFormula>),
    /// Disjunction.
    Or(Vec<StateFormula>),
}

impl StateFormula {
    /// `automaton.location` atom.
    #[must_use]
    pub fn at(a: AutomatonId, l: LocationId) -> Self {
        StateFormula::At(a, l)
    }

    /// Data predicate atom.
    #[must_use]
    pub fn data(e: Expr) -> Self {
        StateFormula::Data(e)
    }

    /// Clock constraint atom.
    #[must_use]
    pub fn clock(atom: ClockAtom) -> Self {
        StateFormula::Clock(atom)
    }

    /// Negation.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: StateFormula) -> Self {
        StateFormula::Not(Box::new(f))
    }

    /// Conjunction of a list of formulas.
    #[must_use]
    pub fn and(fs: Vec<StateFormula>) -> Self {
        StateFormula::And(fs)
    }

    /// Disjunction of a list of formulas.
    #[must_use]
    pub fn or(fs: Vec<StateFormula>) -> Self {
        StateFormula::Or(fs)
    }

    /// All clock atoms syntactically occurring in the formula (used to
    /// widen extrapolation constants so that property bounds stay exact).
    #[must_use]
    pub fn clock_atoms(&self) -> Vec<ClockAtom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut Vec<ClockAtom>) {
        match self {
            StateFormula::Clock(a) => out.push(*a),
            StateFormula::Not(f) => f.collect_atoms(out),
            StateFormula::And(fs) | StateFormula::Or(fs) => {
                for f in fs {
                    f.collect_atoms(out);
                }
            }
            _ => {}
        }
    }

    /// Whether the formula contains clock atoms (if not, satisfaction is
    /// uniform across a symbolic state's zone).
    #[must_use]
    pub fn is_discrete(&self) -> bool {
        match self {
            StateFormula::Clock(_) => false,
            StateFormula::Not(f) => f.is_discrete(),
            StateFormula::And(fs) | StateFormula::Or(fs) => fs.iter().all(Self::is_discrete),
            StateFormula::True
            | StateFormula::False
            | StateFormula::At(..)
            | StateFormula::Data(_) => true,
        }
    }

    /// The truth value of a clock-free formula in the state's discrete
    /// part. By induction, such a formula's federation is the whole zone
    /// when this is `true` and empty when it is `false`.
    fn holds_discrete(&self, net: &Network, state: &SymState) -> bool {
        match self {
            StateFormula::True => true,
            StateFormula::False => false,
            StateFormula::At(a, l) => state.locs[a.index()] == *l,
            StateFormula::Data(e) => e.eval_bool(net.decls(), &state.store, &[]).unwrap_or(false),
            StateFormula::Clock(_) => unreachable!("holds_discrete on a clock atom"),
            StateFormula::Not(f) => !f.holds_discrete(net, state),
            StateFormula::And(fs) => fs.iter().all(|f| f.holds_discrete(net, state)),
            StateFormula::Or(fs) => fs.iter().any(|f| f.holds_discrete(net, state)),
        }
    }

    /// The federation of valuations of `state.zone` satisfying the
    /// formula. Exact (negation is computed by zone subtraction).
    #[must_use]
    pub fn sat_federation(&self, net: &Network, state: &SymState) -> Federation {
        let dim = state.zone.dim();
        let whole = || Federation::from_zones(dim, vec![state.zone.clone()]);
        if self.is_discrete() {
            // All of the zone or none of it.
            return if self.holds_discrete(net, state) {
                whole()
            } else {
                Federation::empty(dim)
            };
        }
        match self {
            StateFormula::Clock(atom) => {
                let mut z = state.zone.clone();
                if z.constrain(atom.i, atom.j, atom.bound) {
                    Federation::from_zones(dim, vec![z])
                } else {
                    Federation::empty(dim)
                }
            }
            StateFormula::Not(f) => whole().subtract(&f.sat_federation(net, state)),
            StateFormula::And(fs) => {
                let mut acc = whole();
                for f in fs {
                    acc = acc.intersection(&f.sat_federation(net, state));
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            StateFormula::Or(fs) => {
                let mut acc = Federation::empty(dim);
                for f in fs {
                    acc.union_with(&f.sat_federation(net, state));
                }
                acc
            }
            StateFormula::True
            | StateFormula::False
            | StateFormula::At(..)
            | StateFormula::Data(_) => unreachable!("clock-free formulas returned above"),
        }
    }

    /// Whether some valuation of the state satisfies the formula.
    #[must_use]
    pub fn holds_somewhere(&self, net: &Network, state: &SymState) -> bool {
        if self.is_discrete() {
            !state.zone.is_empty() && self.holds_discrete(net, state)
        } else {
            !self.sat_federation(net, state).is_empty()
        }
    }

    /// Whether every valuation of the state satisfies the formula.
    #[must_use]
    pub fn holds_everywhere(&self, net: &Network, state: &SymState) -> bool {
        if self.is_discrete() {
            state.zone.is_empty() || self.holds_discrete(net, state)
        } else {
            self.violation_federation(net, state).is_empty()
        }
    }

    /// The subset of `state.zone` *not* satisfying the formula.
    #[must_use]
    pub fn violation_federation(&self, net: &Network, state: &SymState) -> Federation {
        let dim = state.zone.dim();
        let whole = Federation::from_zones(dim, vec![state.zone.clone()]);
        if !self.is_discrete() {
            whole.subtract(&self.sat_federation(net, state))
        } else if self.holds_discrete(net, state) {
            Federation::empty(dim)
        } else {
            whole
        }
    }

    /// Convenience: restricts a zone to the satisfying subset, returning
    /// the pieces.
    #[must_use]
    pub fn restrict(&self, net: &Network, state: &SymState) -> Vec<Dbm> {
        self.sat_federation(net, state).zones().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkBuilder;
    use proptest::prelude::*;
    use tempo_dbm::{Bound, Clock};
    use tempo_expr::BinOp;

    fn simple_net() -> (Network, AutomatonId, LocationId, Clock) {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let _v = b.decls_mut().int_init("v", 0, 9, 5);
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        a.edge(l0, l0).done();
        let aid = a.done();
        (b.build(), aid, l0, x)
    }

    fn state(net: &Network) -> SymState {
        crate::explore::Explorer::new(net).initial_state()
    }

    #[test]
    fn location_and_data_atoms() {
        let (net, aid, l0, _) = simple_net();
        let s = state(&net);
        assert!(StateFormula::at(aid, l0).holds_everywhere(&net, &s));
        let v = net.decls().lookup("v").unwrap();
        assert!(StateFormula::data(Expr::var(v).eq(Expr::konst(5))).holds_somewhere(&net, &s));
        assert!(!StateFormula::data(Expr::var(v).eq(Expr::konst(4))).holds_somewhere(&net, &s));
    }

    #[test]
    fn clock_atoms_split_zones() {
        let (net, _, _, x) = simple_net();
        let s = state(&net); // zone: x >= 0 (delay-closed)
        let low = StateFormula::clock(ClockAtom::le(x, 5));
        assert!(low.holds_somewhere(&net, &s));
        assert!(!low.holds_everywhere(&net, &s));
        let neg = StateFormula::not(low);
        assert!(neg.holds_somewhere(&net, &s)); // x > 5 exists
    }

    #[test]
    fn boolean_combinations() {
        let (net, aid, l0, x) = simple_net();
        let s = state(&net);
        let f = StateFormula::and(vec![
            StateFormula::at(aid, l0),
            StateFormula::clock(ClockAtom::ge(x, 2)),
            StateFormula::clock(ClockAtom::le(x, 4)),
        ]);
        let fed = f.sat_federation(&net, &s);
        assert!(fed.contains(&[0, 3]));
        assert!(!fed.contains(&[0, 5]));
        let g = StateFormula::or(vec![
            StateFormula::clock(ClockAtom::le(x, 1)),
            StateFormula::clock(ClockAtom::ge(x, 9)),
        ]);
        let fed = g.sat_federation(&net, &s);
        assert!(fed.contains(&[0, 0]));
        assert!(fed.contains(&[0, 10]));
        assert!(!fed.contains(&[0, 5]));
    }

    #[test]
    fn formula_atom_collection() {
        let (_, aid, l0, x) = simple_net();
        let f = StateFormula::and(vec![
            StateFormula::at(aid, l0),
            StateFormula::not(StateFormula::clock(ClockAtom::le(x, 7))),
        ]);
        assert_eq!(f.clock_atoms().len(), 1);
        assert!(!f.is_discrete());
        assert!(StateFormula::at(aid, l0).is_discrete());
    }

    /// The satisfying federation computed by zone operations alone, with
    /// no clock-free shortcut.
    fn sat_by_federations(f: &StateFormula, net: &Network, state: &SymState) -> Federation {
        let dim = state.zone.dim();
        let whole = || Federation::from_zones(dim, vec![state.zone.clone()]);
        let uniform = |holds: bool| {
            if holds {
                whole()
            } else {
                Federation::empty(dim)
            }
        };
        match f {
            StateFormula::True => whole(),
            StateFormula::False => Federation::empty(dim),
            StateFormula::At(a, l) => uniform(state.locs[a.index()] == *l),
            StateFormula::Data(e) => {
                uniform(e.eval_bool(net.decls(), &state.store, &[]).unwrap_or(false))
            }
            StateFormula::Clock(atom) => {
                let mut z = state.zone.clone();
                if z.constrain(atom.i, atom.j, atom.bound) {
                    Federation::from_zones(dim, vec![z])
                } else {
                    Federation::empty(dim)
                }
            }
            StateFormula::Not(g) => whole().subtract(&sat_by_federations(g, net, state)),
            StateFormula::And(fs) => {
                let mut acc = whole();
                for g in fs {
                    acc = acc.intersection(&sat_by_federations(g, net, state));
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            StateFormula::Or(fs) => {
                let mut acc = Federation::empty(dim);
                for g in fs {
                    acc.union_with(&sat_by_federations(g, net, state));
                }
                acc
            }
        }
    }

    /// Random formulas over train-gate(`n`): location atoms of every
    /// automaton, data atoms over `len` and `list` (one of which fails to
    /// evaluate while the queue is empty), and, with `clocks`, bounds and
    /// differences on the trains' clocks.
    fn arb_formula(net: &Network, n: usize, clocks: bool) -> BoxedStrategy<StateFormula> {
        let len = net.decls().lookup("len").expect("len");
        let list = net.decls().lookup("list").expect("list");
        let n_i64 = n as i64;
        let mut leaves = vec![
            Just(StateFormula::True).boxed(),
            Just(StateFormula::False).boxed(),
            (0..n + 1, 0..5_usize)
                .prop_map(|(a, l)| StateFormula::at(AutomatonId(a), LocationId(l)))
                .boxed(),
            (0..n_i64 + 1)
                .prop_map(move |k| StateFormula::data(Expr::var(len).ge(Expr::konst(k))))
                .boxed(),
            (0..n_i64)
                .prop_map(move |k| {
                    StateFormula::data(Expr::index(list, Expr::konst(0)).eq(Expr::konst(k)))
                })
                .boxed(),
            Just(StateFormula::data(
                Expr::konst(1)
                    .bin(BinOp::Div, Expr::var(len))
                    .eq(Expr::konst(1)),
            ))
            .boxed(),
        ];
        if clocks {
            leaves.push(
                (1..n + 1, 0..25_i64, 0..4_u8)
                    .prop_map(|(x, c, op)| {
                        let x = Clock(x);
                        StateFormula::clock(match op {
                            0 => ClockAtom::le(x, c),
                            1 => ClockAtom::lt(x, c),
                            2 => ClockAtom::ge(x, c),
                            _ => ClockAtom::gt(x, c),
                        })
                    })
                    .boxed(),
            );
            leaves.push(
                (1..n + 1, 1..n + 1, -10..10_i64)
                    .prop_map(|(i, j, c)| {
                        StateFormula::clock(ClockAtom::diff(Clock(i), Clock(j), Bound::le(c)))
                    })
                    .boxed(),
            );
        }
        proptest::Union::new(leaves).prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                inner.clone().prop_map(StateFormula::not),
                prop::collection::vec(inner.clone(), 0..4).prop_map(StateFormula::and),
                prop::collection::vec(inner, 0..4).prop_map(StateFormula::or),
            ]
        })
    }

    #[test]
    fn clock_free_fast_paths_match_federations() {
        let mut rng = proptest::new_rng(proptest::seed_for("formula::clock_free_fast_paths"));
        for n in [3, 4] {
            let net = crate::fixtures::train_gate(n);
            let budget = tempo_obs::Budget::unlimited().with_max_states(300);
            let (states, _) = crate::ModelChecker::new(&net)
                .reachable_states_governed(&budget)
                .into_value();
            assert_eq!(states.len(), 300, "train-gate({n}) has more states");
            for clocks in [false, true] {
                let formulas = arb_formula(&net, n, clocks);
                let mut mixed = 0;
                for _ in 0..48 {
                    let f = formulas.generate(&mut rng);
                    mixed += usize::from(!f.is_discrete());
                    for s in &states {
                        let sat = sat_by_federations(&f, &net, s);
                        let violation = sat_by_federations(&StateFormula::not(f.clone()), &net, s);
                        assert_eq!(f.sat_federation(&net, s), sat, "{f:?} on {s:?}");
                        assert_eq!(f.violation_federation(&net, s), violation, "{f:?}");
                        assert_eq!(f.holds_somewhere(&net, s), !sat.is_empty(), "{f:?}");
                        assert_eq!(f.holds_everywhere(&net, s), violation.is_empty(), "{f:?}");
                    }
                }
                assert_eq!(mixed > 0, clocks, "train-gate({n}): {mixed} mixed formulas");
            }
        }
    }
}
