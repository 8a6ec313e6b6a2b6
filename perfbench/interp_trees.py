"""Workload ``interp-trees``: dynamic race checks on concrete n-ary trees.

One ``check_data_race(program, on_trees=[tree])`` per tree, under
``sys.setrecursionlimit(256)`` so any recursion over tree depth fails the
query.  Every pass gets its own stratified draw of alike cost: the same
number of trees of the same size and branching factors in every
(program, shape) class, with the seed picking only the random shapes'
structure, the field values and the order.

* programs: minimax ``Score`` (race-free), minimax ``Prune || Scan``
  (racy exactly on trees with a node of two or more children, since every
  ``val`` is positive) and sizecount ``Odd || Even`` (race-free);
* shapes: chain, complete n-ary and random, with 2-6 children per node;
* Score, the costliest program and the latency class, has the most trees;
* plus one ``Odd || Even`` chain of depth 10 000 per pass.

Latency percentiles are taken over the Score trees only, one cost class,
so they never sit on a boundary between unlike classes; the pooled figure
over every tree is the geometric mean.  Expected verdicts follow from the
construction.  Before the timed passes the rule is cross-checked on a
small tree of every class by the legacy generator machine
(``repro.interp.reference``), which shares no code with the explicit-stack
machine under test.
"""

from __future__ import annotations

import random
import sys
import time
from typing import List

from common import Op, Workload

PROGRAMS = ("score", "prune", "oddeven")
SHAPES = ("chain", "complete", "random")
#: Trees per (program, shape) class in one pass.
PER_CLASS = {"score": 7, "prune": 2, "oddeven": 2}
#: The program whose trees form the latency percentiles' one cost class.
LATENCY_CLASS = "score"
NODES = 400
DEEP_CHAIN = 10_000
DEEP_PROGRAM = "oddeven"
ORACLE_NODES = 12
RECURSION_LIMIT = 256


def _node(rng):
    from repro.trees.lcrs import NaryNode

    return NaryNode({"val": rng.randint(1, 8), "best": 0, "depth": 0,
                     "cut": 0})


def build_tree(shape: str, n: int, branching: int, seed: int):
    """An ``n``-node n-ary tree; loop-built, so depth is unbounded."""
    rng = random.Random(seed)
    root = _node(rng)
    nodes = [root]
    if shape == "chain":
        for _ in range(n - 1):
            nodes.append(nodes[-1].add(_node(rng)))
    elif shape == "complete":
        for i in range(1, n):
            nodes.append(nodes[(i - 1) // branching].add(_node(rng)))
    else:
        open_nodes = [root]
        for _ in range(n - 1):
            k = rng.randrange(len(open_nodes))
            parent = open_nodes[k]
            child = parent.add(_node(rng))
            if len(parent.children) >= branching:
                open_nodes[k] = open_nodes[-1]
                open_nodes.pop()
            open_nodes.append(child)
    return root


def expected_verdict(program: str, tree) -> str:
    if program == "prune" and any(len(n.children) > 1 for n in tree.walk()):
        return "race"
    return "race-free"


class InterpTrees(Workload):
    name = "interp-trees"
    nominal_pass_s = 4.0

    def prepare(self, seed: int, passes: int) -> None:
        import repro.core.api  # noqa: F401
        import repro.core.witness  # noqa: F401
        import repro.interp  # noqa: F401
        from repro.casestudies import minimax, sizecount

        self.programs = {
            "score": minimax.parallel_program(),
            "prune": minimax.pruned_program(),
            "oddeven": sizecount.parallel_program(),
        }
        rng = random.Random(seed)
        #: One (program, shape, branching, tree seed) per class: the oracle
        #: rebuilds that member of the draw at a small size.
        self.classes = []
        #: One draw per pass: (class label, program, tree, expected verdict).
        self.draws = [[] for _ in range(passes)]
        for program in PROGRAMS:
            for shape in SHAPES:
                members = []
                for draw in self.draws:
                    # Branching cycles through 2..6 the same way in every
                    # pass, so passes cost alike whatever the seed draws.
                    for i in range(PER_CLASS[program]):
                        members.append((2 + i % 5, rng.randrange(1 << 30)))
                        tree = build_tree(shape, NODES, *members[-1])
                        draw.append((f"{program}/{shape}", program, tree,
                                     expected_verdict(program, tree)))
                self.classes.append((program, shape) + rng.choice(members))
        for draw in self.draws:
            tree = build_tree("chain", DEEP_CHAIN, 1, rng.randrange(1 << 30))
            draw.append((f"{DEEP_PROGRAM}/chain-{DEEP_CHAIN}", DEEP_PROGRAM,
                         tree, "race-free"))
            rng.shuffle(draw)
        sys.setrecursionlimit(RECURSION_LIMIT)

    def verify(self) -> List[Op]:
        from repro.interp import find_races
        from repro.interp.reference import run_reference
        from repro.trees.nary import as_binary

        ops = []
        for program, shape, branching, tree_seed in self.classes:
            tree = build_tree(shape, ORACLE_NODES, branching, tree_seed)
            expected = expected_verdict(program, tree)
            label = f"oracle {program}/{shape}"
            # The generator machine recurses with depth; it gets its own
            # headroom, the machine under test keeps the tight limit.
            sys.setrecursionlimit(10_000)
            try:
                trace = run_reference(self.programs[program],
                                      as_binary(tree)).trace
                got = "race" if find_races(trace) else "race-free"
            except Exception as e:
                ops.append(Op(0.0, "check", False, label,
                              error=f"{type(e).__name__}: {e}"))
                continue
            finally:
                sys.setrecursionlimit(RECURSION_LIMIT)
            ops.append(Op(0.0, "check", got == expected, label,
                          error=None if got == expected else
                          f"oracle says {got!r}, construction {expected!r}"))
        return ops

    def trace_targets(self):
        return [
            ("repro.core.api:check_data_race", "core.api"),
            ("repro.core.api:validate", "lang.validate"),
            ("repro.trees.nary:as_binary", "trees.lcrs"),
            ("repro.interp.races:run", "interp.run",
             lambda result: len(result.trace.events)),
            ("repro.interp.races:find_races", "interp.races"),
            ("repro.core.api:replay_race", "core.replay"),
        ]

    def run_pass(self, index: int) -> List[Op]:
        from repro.core import api

        ops = []
        # Traced passes follow the untraced ones and repeat their draws.
        draw = self.draws[index % len(self.draws)]
        for label, program, tree, expected in draw:
            t0 = time.perf_counter()
            try:
                res = api.check_data_race(self.programs[program],
                                          on_trees=[tree])
            except Exception as e:  # RecursionError included
                ops.append(Op(time.perf_counter() - t0, "miss", False, label,
                              error=f"{type(e).__name__}: {e}", start=t0))
                continue
            latency = time.perf_counter() - t0
            problem = None
            if res.verdict != expected:
                problem = f"verdict {res.verdict!r}, expected {expected!r}"
            elif expected == "race" and not (res.replay
                                             and res.replay.confirmed):
                problem = f"race replay not confirmed: {res.replay}"
            ops.append(Op(latency, "miss", problem is None, label,
                          error=problem,
                          percentile=program == LATENCY_CLASS, start=t0))
        return ops
