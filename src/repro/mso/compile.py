"""Compilation of MSO formulas to bottom-up tree automata.

The classical WS2S decision procedure (Thatcher–Wright, as engineered in
MONA): every variable owns a label track; atoms become small deterministic
automata; conjunction/disjunction become products; negation complements
(determinizing if needed); quantification projects the variable's track.
First-order variables are singleton tracks — ``Sing`` is conjoined at their
quantifier.

Three engineering choices keep the pipeline tractable in pure Python:

* **child-term atoms** (``x.l ∈ X``, ``isNil(x.r)``, ``y == x.l``) and
  the encoder atoms (``ParentRelIn``/``ParentRelNil``, ``AgreeUpTo``) have
  direct automata, so the Retreet encoder emits no inner quantifiers for
  ``Next``/``Prev``/``PathCond``/``Consistent``.  Every atom about a node
  ``x.dirs`` is one state closure (:meth:`Compiler._closure`) over a
  per-subtree property vector; the atoms differ only in the property and
  in how ``x``'s status combines;
* automata are minimized after every complement (and large product), and
  determinization carries a state budget that converts blow-ups into a
  clean :class:`~repro.automata.determinize.StateBudgetExceeded` for the
  caller's fallback logic.  The only other bound is the
  :class:`~repro.runtime.ResourceGuard` installed on ``Compiler.guard``;
* each subformula is compiled once up to an order-preserving renaming of
  its free variables (MONA's automaton sharing).  The memo key is a
  bottom-up *shape*: the formula with bound variables anonymous and free
  variables numbered by first occurrence.  A formula whose free variables
  sit on levels in the same relative order as a compiled one of its shape
  gets that automaton with its guards' levels renamed
  (:meth:`~repro.bdd.bdd.BDDManager.rename`) instead of a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..automata.minimize import minimize, prune_unreachable
from ..automata.tta import TrackRegistry, TreeAutomaton, row_memo
from ..runtime import ResourceGuard
from . import syntax as S

__all__ = ["Compiler", "freshen"]


# ---------------------------------------------------------------------------
# Bound-variable freshening
# ---------------------------------------------------------------------------

def freshen(f: S.Formula, counter: Optional[List[int]] = None, env=None) -> S.Formula:
    """Rename bound variables to globally unique names."""
    counter = counter if counter is not None else [0]
    env = env or {}
    if isinstance(f, S.Not):
        return S.Not(freshen(f.body, counter, env))
    if isinstance(f, S.And):
        return S.And(tuple(freshen(p, counter, env) for p in f.parts))
    if isinstance(f, S.Or):
        return S.Or(tuple(freshen(p, counter, env) for p in f.parts))
    if isinstance(f, (S.Exists1, S.Forall1, S.Exists2, S.Forall2)):
        env2 = dict(env)
        fresh_names = []
        for n in f.names:
            counter[0] += 1
            fn = f"{n}#{counter[0]}"
            env2[n] = fn
            fresh_names.append(fn)
        return type(f)(tuple(fresh_names), freshen(f.body, counter, env2))
    return S.rename_formula(f, env)  # an atom: rename its free variables


# ---------------------------------------------------------------------------
# Status rules of the atoms about x.dirs (see Compiler._path_atom)
# ---------------------------------------------------------------------------

def _merge_stat(a: int, b: int) -> int:
    """Combine the children's statuses: 3 (dead) absorbs, and a variable
    seen in both subtrees is a duplicate."""
    return 3 if a == 3 or b == 3 or (a and b) else a or b


def _target_stat(kids, here: bool, v) -> int:
    """``x.dirs`` atoms: 0 x unseen, 1 seen with P at x.dirs (v[0] at x),
    2 seen without, 3 x twice."""
    base = 0 if kids is None else _merge_stat(*kids)
    if not here:
        return base
    return 3 if base else (1 if v[0] else 2)


def _parent_stat(d: str):
    """ParentRel atoms: 0 u unseen, 1 pending (u at the subtree root),
    2 ok, 3 dead.  The pending mark resolves at u's parent: u must be the
    ``d``-child and P must hold at parent.dirs (v[0] there); a mark that
    passes a parent step unresolved (u in the other child) is dead."""

    def stat(kids, here: bool, v) -> int:
        base = 0
        if kids is not None:
            child, other = kids if d == "l" else kids[::-1]
            if child == 1:
                child = 2 if v[0] else 3
            base = _merge_stat(child, 3 if other == 1 else other)
        if not here:
            return base
        return 1 if base == 0 else 3  # u here too: duplicate unless alone

    return stat


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

_QUANTIFIERS = (S.Exists1, S.Forall1, S.Exists2, S.Forall2)


@dataclass
class CompileStats:
    products: int = 0
    complements: int = 0
    projections: int = 0
    minimizations: int = 0
    max_states: int = 0
    # Memo misses: automata built from the formula.
    builds: int = 0
    # Automata copied from one of the same shape by renaming levels.
    renames: int = 0

    def note(self, a: TreeAutomaton) -> TreeAutomaton:
        self.max_states = max(self.max_states, a.n_states)
        return a


class Compiler:
    """Stateful formula -> automaton compiler with memoization."""

    def __init__(
        self,
        registry: Optional[TrackRegistry] = None,
        minimize_always: bool = True,
        det_budget: int = 200_000,
    ) -> None:
        self.registry = registry or TrackRegistry()
        self.minimize_always = minimize_always
        self.det_budget = det_budget
        # Checked inside long-running constructions (the solver installs it).
        self.guard: Optional[ResourceGuard] = None
        self.stats = CompileStats()
        # id(formula) -> (shape, free variables in first-occurrence order,
        # the formula itself, which keeps its id from being reused).
        self._shape_of: Dict[int, Tuple[int, Tuple[str, ...], S.Formula]] = {}
        self._shape_ids: Dict[object, int] = {}
        # Exact memo: (shape, levels of the free variables) -> automaton.
        self._cache: Dict[Tuple[int, Tuple[int, ...]], TreeAutomaton] = {}
        # Rename memo: (shape, level order of the free variables) ->
        # (automaton, its free variables, their levels).
        self._by_order: Dict[
            Tuple[int, Tuple[int, ...]],
            Tuple[TreeAutomaton, Tuple[str, ...], Tuple[int, ...]],
        ] = {}

    # -- public API ---------------------------------------------------------
    def compile(self, formula: S.Formula, already_fresh: bool = False) -> TreeAutomaton:
        f = formula if already_fresh else freshen(formula)
        return self._compile(f)

    def compile_product(self, formula: S.Formula, already_fresh: bool = False):
        """Compile keeping a top-level conjunction *symbolic*.

        Returns a :class:`~repro.automata.product.ProductAutomaton` of
        the conjuncts' automata (each still compiled and minimized
        eagerly) instead of multiplying them out, so emptiness can run
        lazily on the implicit product.  Non-conjunctions compile as
        usual.
        """
        from ..automata.product import ProductAutomaton

        f = formula if already_fresh else freshen(formula)
        if isinstance(f, S.And):
            return ProductAutomaton([self._compile(p) for p in f.parts])
        return self._compile(f)

    # -- guard helpers --------------------------------------------------------
    def _bit(self, name: str, value: bool = True) -> int:
        return self.registry.bit(name, value)

    @property
    def _mgr(self):
        return self.registry.manager

    # -- shape keys -----------------------------------------------------------------
    def _shape(self, f: S.Formula) -> Tuple[int, Tuple[str, ...]]:
        """``f``'s interned shape and its free variables in first-occurrence
        order.

        Two formulas have one shape iff they are equal up to renaming
        bound variables and renaming free variables position for
        position.  Atoms key on the atom with each variable replaced by
        its position (the type stays in the key); connectives on the
        children's shapes and where each child's variables sit in the
        parent's list; quantifiers on the body's shape and, per body
        variable, which binder it is (-1 for a free one).  Each node is
        keyed once, from its children's keys.
        """
        entry = self._shape_of.get(id(f))
        if entry is not None:
            return entry[0], entry[1]
        key: object
        if isinstance(f, S.Not):
            shape, names = self._shape(f.body)
            key = ("not", shape)
        elif isinstance(f, (S.And, S.Or)):
            kids = [self._shape(p) for p in f.parts]
            pos: Dict[str, int] = {}
            for _, vs in kids:
                for v in vs:
                    pos.setdefault(v, len(pos))
            names = tuple(pos)
            key = (
                type(f).__name__,
                tuple((k, tuple(pos[v] for v in vs)) for k, vs in kids),
            )
        elif isinstance(f, _QUANTIFIERS):
            shape, body = self._shape(f.body)
            bound: Dict[str, int] = {}
            for k, n in enumerate(f.names):
                bound.setdefault(n, k)
            names = tuple(v for v in body if v not in bound)
            marks = tuple(bound.get(v, -1) for v in body)
            key = (type(f).__name__, len(f.names), shape, marks)
        else:
            pos = {}
            for v in S.atom_vars(f):
                pos.setdefault(v, len(pos))
            names = tuple(pos)
            key = S.rename_formula(f, {v: str(i) for v, i in pos.items()})
        shape = self._shape_ids.setdefault(key, len(self._shape_ids))
        self._shape_of[id(f)] = (shape, names, f)
        return shape, names

    # -- main dispatch ------------------------------------------------------------
    def _compile(self, f: S.Formula) -> TreeAutomaton:
        shape, names = self._shape(f)
        levels = tuple(self.registry.level(n) for n in names)
        key = (shape, levels)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        order = (shape, tuple(sorted(range(len(levels)), key=levels.__getitem__)))
        seen = self._by_order.get(order)
        if seen is not None:
            self.stats.renames += 1
            a = self._renamed(*seen, names, levels)
        else:
            self.stats.builds += 1
            a = self.stats.note(self._build(f))
            self._by_order[order] = (a, names, levels)
        # Renamed results are kept too, so a repeated compile returns the
        # same object (identity-keyed caches downstream rely on it).
        self._cache[key] = a
        return a

    def _renamed(
        self,
        a: TreeAutomaton,
        old_names: Tuple[str, ...],
        old_levels: Tuple[int, ...],
        names: Tuple[str, ...],
        levels: Tuple[int, ...],
    ) -> TreeAutomaton:
        """``a`` with its free variables moved from ``old_levels`` to
        ``levels`` (same relative order): guards renamed level for level,
        each distinct row once."""
        ren = self._mgr.renamer(dict(zip(old_levels, levels)))
        rows = row_memo(lambda row: [(ren(g), q) for g, q in row])
        track = dict(zip(old_names, names))
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset(track[t] for t in a.tracks),
            n_states=a.n_states,
            leaf=[(ren(g), q) for g, q in a.leaf],
            delta={k: rows(row) for k, row in a.delta.items()},
            accepting=a.accepting,
            deterministic=a.deterministic,
            complete=a.complete,
        )

    def _build(self, f: S.Formula) -> TreeAutomaton:
        if isinstance(f, S.TrueF):
            return self._const(True)
        if isinstance(f, S.FalseF):
            return self._const(False)
        # Atoms about the node x.dirs; ``x.dirs == z`` is ``x.dirs ∈ {z}``
        # (z's singleton-ness is conjoined at its quantifier).
        if isinstance(f, S.In):
            return self._path_atom(f.term.var, f.term.dirs, self._member(f.setvar))
        if isinstance(f, S.IsNilT):
            return self._path_atom(f.term.var, f.term.dirs, self._nil())
        if isinstance(f, S.ChildIs):
            return self._path_atom(f.xvar, f.dirs, self._member(f.zvar))
        if isinstance(f, S.LeftOf):
            return self._path_atom(f.parent, "l", self._member(f.child))
        if isinstance(f, S.RightOf):
            return self._path_atom(f.parent, "r", self._member(f.child))
        if isinstance(f, S.ParentRelIn):
            return self._path_atom(
                f.uvar, f.dirs, self._member(f.setvar), _parent_stat(f.d), 2
            )
        if isinstance(f, S.ParentRelNil):
            return self._path_atom(f.uvar, f.dirs, self._nil(), _parent_stat(f.d), 2)
        if isinstance(f, S.AgreeUpTo):
            return self._atom_agree_upto(f)
        if isinstance(f, S.RootT):
            return self._atom_root(f.term)
        if isinstance(f, S.EqT):
            return self._atom_eq(f)
        if isinstance(f, S.Reach):
            return self._atom_reach(f.a, f.b)
        if isinstance(f, S.Subset):
            return self._atom_subset(f.a, f.b)
        if isinstance(f, S.Sing):
            return self._atom_sing(f.setvar)
        if isinstance(f, S.Empty):
            return self._atom_empty(f.setvar)
        if isinstance(f, S.Not):
            inner = self._compile(f.body)
            self.stats.complements += 1
            out = inner.complemented(guard=self.guard, max_states=self.det_budget)
            return self._maybe_min(out)
        if isinstance(f, S.And):
            return self._combine(f.parts, union=False)
        if isinstance(f, S.Or):
            return self._combine(f.parts, union=True)
        if isinstance(f, S.Exists2):
            inner = self._compile(f.body)
            self.stats.projections += 1
            out = inner.projected(f.names)
            return prune_unreachable(out)
        if isinstance(f, S.Exists1):
            body = S.And(
                tuple(S.Sing(n) for n in f.names) + (f.body,)
            )
            inner = self._compile(body)
            self.stats.projections += 1
            return prune_unreachable(inner.projected(f.names))
        if isinstance(f, S.Forall1):
            return self._compile(
                S.Not(S.Exists1(f.names, S.Not(f.body)))
            )
        if isinstance(f, S.Forall2):
            return self._compile(
                S.Not(S.Exists2(f.names, S.Not(f.body)))
            )
        raise TypeError(f"unknown formula {f!r}")

    def _maybe_min(self, a: TreeAutomaton) -> TreeAutomaton:
        if self.minimize_always and a.deterministic:
            self.stats.minimizations += 1
            return minimize(a, guard=self.guard)
        return prune_unreachable(a)

    def _combine(self, parts: Tuple[S.Formula, ...], union: bool) -> TreeAutomaton:
        autos = [self._compile(p) for p in parts]
        # Combine smallest-first to keep intermediate products small.
        autos.sort(key=lambda a: a.n_states)
        if union:
            return self._union(autos)
        guard = self.guard
        acc = autos[0]
        for nxt in autos[1:]:
            self.stats.products += 1
            acc = acc.product(nxt, lambda x, y: x and y, guard=guard)
            if (
                acc.deterministic
                and acc.n_states > 8
                and self.minimize_always
            ):
                self.stats.minimizations += 1
                acc = minimize(acc.completed(), guard=guard)
        return acc

    # Unions of small deterministic automata go through the product (the
    # minimized DFTA keeps later complements cheap); anything larger uses
    # the linear disjoint sum (nondeterministic, and intersection products
    # against it still prune well).
    _UNION_PRODUCT_LIMIT = 24

    def _union(self, autos) -> TreeAutomaton:
        acc = autos[0]
        for nxt in autos[1:]:
            small = (
                acc.deterministic
                and nxt.deterministic
                and acc.n_states * nxt.n_states <= self._UNION_PRODUCT_LIMIT**2
            )
            if small:
                self.stats.products += 1
                acc = acc.completed().product(
                    nxt.completed(), lambda x, y: x or y, guard=self.guard
                )
                if acc.n_states > 8 and self.minimize_always:
                    self.stats.minimizations += 1
                    acc = minimize(acc.completed(), guard=self.guard)
            else:
                acc = acc.union_sum(nxt)
        return prune_unreachable(acc)

    # ------------------------------------------------------------------
    # Atom automata.  State meanings documented per atom.
    # ------------------------------------------------------------------

    def _const(self, value: bool) -> TreeAutomaton:
        t = self._mgr.true
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset(),
            n_states=1,
            leaf=[(t, 0)],
            delta={(0, 0): [(t, 0)]},
            accepting=frozenset({0}) if value else frozenset(),
            deterministic=True,
            complete=True,
        )

    def _atom_subset(self, a: str, b: str) -> TreeAutomaton:
        """States: 0 ok so far, 1 violation seen."""
        mgr = self._mgr
        viol = mgr.apply_and(self._bit(a), self._bit(b, False))
        ok = mgr.apply_not(viol)
        delta = {}
        for l in (0, 1):
            for r in (0, 1):
                if l or r:
                    delta[(l, r)] = [(mgr.true, 1)]
                else:
                    delta[(l, r)] = [(ok, 0), (viol, 1)]
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({a, b}),
            n_states=2,
            leaf=[(ok, 0), (viol, 1)],
            delta=delta,
            accepting=frozenset({0}),
            deterministic=True,
            complete=True,
        )

    def _atom_empty(self, x: str) -> TreeAutomaton:
        mgr = self._mgr
        has = self._bit(x)
        not_has = self._bit(x, False)
        delta = {}
        for l in (0, 1):
            for r in (0, 1):
                if l or r:
                    delta[(l, r)] = [(mgr.true, 1)]
                else:
                    delta[(l, r)] = [(not_has, 0), (has, 1)]
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({x}),
            n_states=2,
            leaf=[(not_has, 0), (has, 1)],
            delta=delta,
            accepting=frozenset({0}),
            deterministic=True,
            complete=True,
        )

    def _atom_sing(self, x: str) -> TreeAutomaton:
        """States count occurrences of the x bit: 0, 1, 2+ (=2)."""
        mgr = self._mgr
        has = self._bit(x)
        not_has = self._bit(x, False)
        delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for l in (0, 1, 2):
            for r in (0, 1, 2):
                base = min(l + r, 2)
                delta[(l, r)] = [
                    (not_has, base),
                    (has, min(base + 1, 2)),
                ]
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({x}),
            n_states=3,
            leaf=[(not_has, 0), (has, 1)],
            delta=delta,
            accepting=frozenset({1}),
            deterministic=True,
            complete=True,
        )

    # -- atoms about the node x.dirs --------------------------------------------
    #
    # Per subtree we track a boolean vector v of length len(dirs)+1 where
    # v[k] answers a per-node property P at root.dirs[k:] (v[-1] = P at the
    # subtree root itself, taken from the label).  v[k] = v_child(dirs[k])[k+1];
    # at a leaf the descendant slots take P's value on virtual nil nodes.
    # Paired with a status of x (``_target_stat``/``_parent_stat``) this
    # yields In/IsNil/ChildIs/LeftOf/RightOf and ParentRelIn/ParentRelNil.

    def _closure(self, leaf, step, tracks, accept) -> TreeAutomaton:
        """Deterministic complete automaton over hashable state keys.

        ``leaf`` lists ``(guard, key)`` pairs and ``step(kl, kr)`` returns
        the pairs for a node whose children are in states ``kl``/``kr``.
        States are numbered in discovery order; every pair of known states
        is stepped, round by round, until no new key appears.  Pairs with a
        false guard are dropped; ``accept(key)`` picks the accepting keys.
        """
        false = self._mgr.false
        ids: Dict[object, int] = {}

        def number(pairs):
            return [(g, ids.setdefault(k, len(ids))) for g, k in pairs if g != false]

        leaf_entries = number(leaf)
        delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        while len(delta) < len(ids) ** 2:
            keys = list(ids)
            for il, kl in enumerate(keys):
                for ir, kr in enumerate(keys):
                    if (il, ir) not in delta:
                        delta[(il, ir)] = number(step(kl, kr))
        return TreeAutomaton(
            registry=self.registry,
            tracks=tracks,
            n_states=len(ids),
            leaf=leaf_entries,
            delta=delta,
            accepting=frozenset(i for k, i in ids.items() if accept(k)),
            deterministic=True,
            complete=True,
        )

    def _member(self, setvar: str):
        """P = "node ∈ setvar"; virtual nil nodes belong to no set."""
        cells = [(self._bit(setvar), True), (self._bit(setvar, False), False)]
        return cells, cells, False, frozenset({setvar})

    def _nil(self):
        """P = "node is nil": true on leaves, false inside; below nil, nil."""
        t = self._mgr.true
        return [(t, True)], [(t, False)], True, frozenset()

    def _path_atom(self, var: str, dirs: str, prop, stat=_target_stat, accept=1):
        """States ``(status of var, v)`` for an atom about ``var.dirs``.

        ``prop`` is ``_member``/``_nil``'s (leaf cells, node cells, virtual
        value, tracks), each cell a ``(guard, P)`` pair partitioning the
        labels.  ``stat(kids, here, v)`` is var's status from the
        children's (``None`` at a leaf), whether var is at this node, and
        this node's vector; ``accept`` is the accepting status.
        """
        leaf_cells, node_cells, virtual, tracks = prop
        mgr = self._mgr
        xb, nxb = self._bit(var), self._bit(var, False)

        def split(cells):
            return [(mgr.apply_and(g, nxb), mgr.apply_and(g, xb), p) for g, p in cells]

        def pairs(kids, below, cells):
            out = []
            for g0, g1, p in cells:
                v = below + (p,)
                out.append((g0, (stat(kids, False, v), v)))
                out.append((g1, (stat(kids, True, v), v)))
            return out

        leaf_cells, node_cells = split(leaf_cells), split(node_cells)

        def step(kl, kr):
            (sl, vl), (sr, vr) = kl, kr
            below = tuple((vl if c == "l" else vr)[i + 1] for i, c in enumerate(dirs))
            return pairs((sl, sr), below, node_cells)

        return self._closure(
            pairs(None, (virtual,) * len(dirs), leaf_cells),
            step,
            tracks | {var},
            lambda key: key[0] == accept,
        )

    def _atom_root(self, term: S.NodeTerm) -> TreeAutomaton:
        """States: 0 no x; 1 x at subtree root; 2 x strictly inside; 3 bad."""
        if term.dirs:
            # A strict descendant can never be the root.
            return self._const(False)
        mgr = self._mgr
        x = term.var
        xb, nxb = self._bit(x), self._bit(x, False)
        delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for l in (0, 1, 2, 3):
            for r in (0, 1, 2, 3):
                if l == 3 or r == 3 or (l and r):
                    base = 3
                elif l or r:
                    base = 2
                else:
                    base = 0
                entries = [(nxb, base)]
                entries.append((xb, 1 if base == 0 else 3))
                delta[(l, r)] = entries
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({x}),
            n_states=4,
            leaf=[(nxb, 0), (xb, 1)],
            delta=delta,
            accepting=frozenset({1}),
            deterministic=True,
            complete=True,
        )

    def _atom_eq(self, f: S.EqT) -> TreeAutomaton:
        """``x.da == y.db``; direct automaton when both terms are bare
        variables, otherwise via a fresh witness variable."""
        if not f.a.dirs and not f.b.dirs:
            if f.a.var == f.b.var:
                return self._const(True)
            # x == y: both bits on the same (single) node.
            mgr = self._mgr
            x, y = f.a.var, f.b.var
            both = mgr.apply_and(self._bit(x), self._bit(y))
            nx = mgr.apply_and(self._bit(x, False), self._bit(y, False))
            other = mgr.apply_not(mgr.apply_or(both, nx))
            delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
            # states: 0 none seen; 1 pair seen; 2 bad.
            for l in (0, 1, 2):
                for r in (0, 1, 2):
                    if l == 2 or r == 2 or (l == 1 and r == 1):
                        base = 2
                    else:
                        base = max(l, r)
                    delta[(l, r)] = [
                        (nx, base),
                        (both, 1 if base == 0 else 2),
                        (other, 2),
                    ]
            return TreeAutomaton(
                registry=self.registry,
                tracks=frozenset({x, y}),
                n_states=3,
                leaf=[(nx, 0), (both, 1), (other, 2)],
                delta=delta,
                accepting=frozenset({1}),
                deterministic=True,
            )
        # General case via an auxiliary first-order witness.
        z = f"@eq#{abs(hash((f.a, f.b))) % 10_000_000}"
        body = S.And(
            (
                self._childis_formula(f.a, z),
                self._childis_formula(f.b, z),
            )
        )
        return self._compile(S.Exists1((z,), body))

    @staticmethod
    def _childis_formula(term: S.NodeTerm, z: str) -> S.Formula:
        if not term.dirs:
            return S.EqT(S.NodeTerm(term.var), S.NodeTerm(z))
        return S.ChildIs(term.var, term.dirs, z)

    def _atom_reach(self, a: str, b: str) -> TreeAutomaton:
        """Proper ancestry.  States:
        0 none; 1 only b seen; 2 only a seen (dead); 3 a above b (accept);
        4 both seen but not in ancestry / duplicates (dead)."""
        mgr = self._mgr
        ab = self._bit(a)
        nab = self._bit(a, False)
        bb = self._bit(b)
        nbb = self._bit(b, False)
        g_none = mgr.apply_and(nab, nbb)
        g_a = mgr.apply_and(ab, nbb)
        g_b = mgr.apply_and(nab, bb)
        g_both = mgr.apply_and(ab, bb)

        def step(l: int, r: int) -> List[Tuple[int, int]]:
            # Merge child statuses.
            seen_a = l in (2, 3, 4) or r in (2, 3, 4)
            seen_b = l in (1, 3, 4) or r in (1, 3, 4)
            dup = (l in (2, 3, 4) and r in (2, 3, 4)) or (
                l in (1, 3, 4) and r in (1, 3, 4)
            )
            ok = l == 3 or r == 3
            # combined child state:
            if dup:
                base = 4
            elif ok:
                base = 3
            elif seen_a and seen_b:
                base = 4  # a and b in different subtrees: not ancestry
            elif seen_a:
                base = 2
            elif seen_b:
                base = 1
            else:
                base = 0
            out = [(g_none, base)]
            # a at this node:
            if seen_a or base == 4:
                out.append((g_a, 4))
            else:
                out.append((g_a, 3 if base == 1 else 2))
            # b at this node: b must be *below* a; a processed later (above).
            if seen_b or base == 4:
                out.append((g_b, 4))
            else:
                # base is 0 or 2 or 3; if a already below, b above a: dead.
                out.append((g_b, 1 if base == 0 else 4))
            # both on this node: reach is proper -> dead.
            out.append((g_both, 4))
            return out

        delta = {
            (l, r): step(l, r) for l in range(5) for r in range(5)
        }
        return TreeAutomaton(
            registry=self.registry,
            tracks=frozenset({a, b}),
            n_states=5,
            leaf=[(g_none, 0), (g_a, 2), (g_b, 1), (g_both, 4)],
            delta=delta,
            accepting=frozenset({3}),
            deterministic=True,
            complete=True,
        )

    def _atom_agree_upto(self, f: S.AgreeUpTo) -> TreeAutomaton:
        """States: 0 z not in subtree; 1 z inside & path so far agrees; 2 dead.

        At ``z`` itself only the inclusive pairs must agree; strictly above it
        both the inclusive and the strict pairs must."""
        mgr = self._mgr
        zb = self._bit(f.zvar)
        nzb = self._bit(f.zvar, False)

        def iff_all(pairs) -> int:
            g = mgr.true
            for a, b in pairs:
                ab, bb = self._bit(a), self._bit(b)
                iff = mgr.apply_or(
                    mgr.apply_and(ab, bb),
                    mgr.apply_and(mgr.apply_not(ab), mgr.apply_not(bb)),
                )
                g = mgr.apply_and(g, iff)
            return g

        agree_at_z = iff_all(f.pairs)
        agree_above = mgr.apply_and(agree_at_z, iff_all(f.strict_pairs))
        dis_at_z = mgr.apply_not(agree_at_z)
        dis_above = mgr.apply_not(agree_above)
        delta: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for l in (0, 1, 2):
            for r in (0, 1, 2):
                if l == 2 or r == 2 or (l == 1 and r == 1):
                    base = 2
                else:
                    base = 1 if (l == 1 or r == 1) else 0
                entries = []
                if base == 0:
                    # z could sit here; inclusive pairs must agree at z.
                    entries.append((nzb, 0))
                    entries.append((mgr.apply_and(zb, agree_at_z), 1))
                    entries.append((mgr.apply_and(zb, dis_at_z), 2))
                elif base == 1:
                    # On the path above z: full agreement; no second z.
                    entries.append((mgr.apply_and(nzb, agree_above), 1))
                    entries.append((mgr.apply_and(nzb, dis_above), 2))
                    entries.append((zb, 2))
                else:
                    entries.append((mgr.true, 2))
                delta[(l, r)] = entries
        tracks = (
            frozenset({f.zvar})
            | frozenset(t for pair in f.pairs for t in pair)
            | frozenset(t for pair in f.strict_pairs for t in pair)
        )
        return TreeAutomaton(
            registry=self.registry,
            tracks=tracks,
            n_states=3,
            leaf=[
                (nzb, 0),
                (mgr.apply_and(zb, agree_at_z), 1),
                (mgr.apply_and(zb, dis_at_z), 2),
            ],
            accepting=frozenset({1}),
            delta=delta,
            deterministic=True,
            complete=True,
        )
