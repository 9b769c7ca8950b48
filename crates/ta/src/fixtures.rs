//! Small networks shared by the crate's unit tests.

use crate::model::{ChannelKind, ClockAtom, Network, NetworkBuilder};
use tempo_expr::{Expr, Stmt};

/// The train-gate of Bozga et al. (DATE 2012, Fig. 1) for `n` trains,
/// with `list` marked as holding train identities.
pub(crate) fn train_gate(n: usize) -> Network {
    let mut b = NetworkBuilder::new();
    let n_i64 = n as i64;
    let appr_ch = b.channel_array("appr", n, ChannelKind::Binary, false);
    let go_ch = b.channel_array("go", n, ChannelKind::Binary, false);
    let stop_ch = b.channel_array("stop", n, ChannelKind::Binary, false);
    let leave_ch = b.channel_array("leave", n, ChannelKind::Binary, false);
    let list = b.decls_mut().array("list", n + 1, 0, n_i64 - 1);
    let len = b.decls_mut().int("len", 0, n_i64);
    let idx = b.decls_mut().int("i", 0, n_i64);
    b.mark_id_var(list);
    for id in 0..n {
        let x = b.clock(&format!("x{id}"));
        let mut t = b.automaton(&format!("Train{id}"));
        let safe = t.location("Safe");
        let appr = t.location_with_invariant("Appr", vec![ClockAtom::le(x, 20)]);
        let stop = t.location("Stop");
        let start = t.location_with_invariant("Start", vec![ClockAtom::le(x, 15)]);
        let cross = t.location_with_invariant("Cross", vec![ClockAtom::le(x, 5)]);
        t.set_initial(safe);
        let me = Expr::konst(id as i64);
        t.edge(safe, appr)
            .send_indexed(appr_ch, me.clone())
            .reset(x, 0)
            .done();
        t.edge(appr, cross)
            .guard_clock(ClockAtom::ge(x, 10))
            .reset(x, 0)
            .done();
        t.edge(appr, stop)
            .guard_clock(ClockAtom::le(x, 10))
            .recv_indexed(stop_ch, me.clone())
            .reset(x, 0)
            .done();
        t.edge(stop, start)
            .recv_indexed(go_ch, me.clone())
            .reset(x, 0)
            .done();
        t.edge(start, cross)
            .guard_clock(ClockAtom::ge(x, 7))
            .reset(x, 0)
            .done();
        t.edge(cross, safe)
            .guard_clock(ClockAtom::ge(x, 3))
            .send_indexed(leave_ch, me)
            .done();
        t.done();
    }
    let enqueue = Stmt::seq(vec![
        Stmt::assign_index(list, Expr::var(len), Expr::select(0)),
        Stmt::assign(len, Expr::var(len) + Expr::konst(1)),
    ]);
    let front = Expr::index(list, Expr::konst(0));
    let tail = Expr::index(list, Expr::var(len) - Expr::konst(1));
    let dequeue = Stmt::seq(vec![
        Stmt::assign(idx, Expr::konst(0)),
        Stmt::assign(len, Expr::var(len) - Expr::konst(1)),
        Stmt::while_loop(
            Expr::var(idx).lt(Expr::var(len)),
            Stmt::seq(vec![
                Stmt::assign_index(
                    list,
                    Expr::var(idx),
                    Expr::index(list, Expr::var(idx) + Expr::konst(1)),
                ),
                Stmt::assign(idx, Expr::var(idx) + Expr::konst(1)),
            ]),
        ),
        Stmt::assign_index(list, Expr::var(idx), Expr::konst(0)),
    ]);
    let mut c = b.automaton("Gate");
    let free = c.location("Free");
    let occ = c.location("Occ");
    let stopping = c.committed_location("Stopping");
    c.set_initial(free);
    c.edge(free, occ)
        .select(0, n_i64 - 1)
        .guard_data(Expr::var(len).eq(Expr::konst(0)))
        .recv_indexed(appr_ch, Expr::select(0))
        .update(enqueue.clone())
        .done();
    c.edge(free, occ)
        .guard_data(Expr::var(len).gt(Expr::konst(0)))
        .send_indexed(go_ch, front.clone())
        .done();
    c.edge(occ, stopping)
        .select(0, n_i64 - 1)
        .recv_indexed(appr_ch, Expr::select(0))
        .update(enqueue)
        .done();
    c.edge(stopping, occ).send_indexed(stop_ch, tail).done();
    c.edge(occ, free)
        .select(0, n_i64 - 1)
        .guard_data(Expr::select(0).eq(front))
        .recv_indexed(leave_ch, Expr::select(0))
        .update(dequeue)
        .done();
    c.done();
    b.build()
}

/// One automaton `L0 → Sink` with no edge out of `Sink`: a real deadlock.
pub(crate) fn sink() -> Network {
    let mut b = NetworkBuilder::new();
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    let sink = a.location("Sink");
    a.edge(l0, sink).done();
    a.done();
    b.build()
}

/// `L0 --(x <= 2)--> L1`: from `x > 2` on, `L0` is stuck, and `L1` has
/// no edge at all.
pub(crate) fn late_guard() -> Network {
    let mut b = NetworkBuilder::new();
    let x = b.clock("x");
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    let l1 = a.location("L1");
    a.edge(l0, l1).guard_clock(ClockAtom::le(x, 2)).done();
    a.done();
    b.build()
}

/// `L0 → L1` on an edge whose second `select` range is empty, and a
/// self-loop on `L1`: the first edge never fires, so `L0` is a real
/// deadlock and the only reachable state.
pub(crate) fn empty_select() -> Network {
    let mut b = NetworkBuilder::new();
    let mut a = b.automaton("A");
    let l0 = a.location("L0");
    let l1 = a.location("L1");
    a.edge(l0, l1).select(0, 1).select(5, 3).done();
    a.edge(l1, l1).done();
    a.done();
    b.build()
}
