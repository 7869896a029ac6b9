"""Golden digests of the builders, and the per-kernel path they fall back to.

Every stored array of ``build_lattice``/``uniform_tree`` (parents, offsets,
values), ``Measure`` (flat kernels, node probabilities), ``mix_measures`` and
``reference_measure``, ``OneStepStructure`` (flat kernels, penalties, menu
sizes) and ``DualRep`` (stacked kernels and penalties) on seeded inputs is
hashed bit for bit, so a builder that checks and normalizes whole levels
must reproduce the recorded bits.  The inputs cover fan-outs 1-8, a fan-out
of 10 and ragged levels, kernels with zero weights (so that mixtures have
null nodes), kernels given as lists, and increment blocks given as 1-D and
2-D arrays side by side in one level.  So are the stored arrays of
``rectangular_hull`` (flat kernels, penalties, menu sizes), and the verdicts
of ``is_stable`` with the kernels of its witnesses, on members that leave
nodes null, coincide within 1e-12 or differ only at some levels.
"""

import hashlib

import numpy as np
import pytest

from riskdesk import fixtures, lattice, measures
from riskdesk.dynamics import OneStepStructure, expand_dual
from riskdesk.fixtures import random_measure
from riskdesk.lattice import RandomVariable, build_lattice, uniform_tree
from riskdesk.measures import Measure, MeasureFamily, mix_measures, reference_measure
from riskdesk.risk import DualRep, minimal_penalty, rm_evaluate
from riskdesk.stability import enumerate_selections, is_stable, rectangular_hull


def sparse_kernel(rng, b):
    """Random kernel on b children with some zero weights, never all zero."""
    w = rng.dirichlet(np.ones(b))
    w[rng.random(b) < 0.4] = 0.0
    if not w.any():
        w[rng.integers(b)] = 1.0
    return w / w.sum()


def case_lattice(case, rng):
    if case == "ragged":  # 1 to 10 children per node, blocks 1-D and (b, 1) in turn
        incs, n = [], 1
        for _ in range(3):
            blocks = [rng.normal(size=int(rng.integers(1, 11))) for _ in range(n)]
            incs.append([x if i % 2 else x[:, None] for i, x in enumerate(blocks)])
            n = sum(len(x) for x in blocks)
        return build_lattice((0.0, 1.0, 2.0, 3.0), incs, dimension=1)
    b = int(case[1:])
    depth = 3 if b <= 4 else 2
    return uniform_tree(np.arange(depth + 1.0), np.linspace(1.0, -1.0, b))


def kernel_levels(lat, rng, sparse, as_lists=False):
    levels = []
    for k in range(lat.terminal):
        level = []
        for b in np.diff(lat.offsets[k]):
            w = sparse_kernel(rng, b) if sparse else rng.dirichlet(np.ones(b))
            level.append(w.tolist() if as_lists else w)
        levels.append(tuple(level))
    return tuple(levels)


def menus(lat, rng):
    """Per node 1-3 choices; choice 0 is free, the others cost uniform(0, 0.5)
    or, for about one in four, +inf."""
    levels = []
    for k in range(lat.terminal):
        level = []
        for b in np.diff(lat.offsets[k]):
            menu = [(sparse_kernel(rng, b), 0.0)]
            for _ in range(int(rng.integers(0, 3))):
                a = np.inf if rng.random() < 0.25 else float(rng.uniform(0.0, 0.5))
                menu.append((sparse_kernel(rng, b).tolist(), a))
            level.append(tuple(menu))
        levels.append(tuple(level))
    return tuple(levels)


def digests(case, seed):
    rng = np.random.default_rng(seed)
    lat = case_lattice(case, rng)
    T = lat.terminal
    out = {name: hashlib.sha256() for name in
           ("lattice", "measure", "mix", "structure", "dualrep")}

    def put(name, *arrays):
        for a in arrays:
            out[name].update(np.ascontiguousarray(a).tobytes())

    for t in range(T + 1):
        put("lattice", lat.parents[t], lat.values[t])
    put("lattice", *lat.offsets, np.array(lat.fanouts))

    members = [Measure(lat, kernel_levels(lat, rng, sparse=i % 2 == 1, as_lists=i == 2))
               for i in range(9)]
    for Q in members:
        put("measure", *Q.flat_kernels, *(Q.node_probabilities(t) for t in range(T + 1)))

    mixes = [reference_measure(MeasureFamily(tuple(members))),
             reference_measure(MeasureFamily((members[1], members[3]))),
             mix_measures(members[:1], [2.0]),
             mix_measures(members[:5], [0.0, 1.0, 0.0, 3.0, 0.5]),
             mix_measures([members[1], members[5]], [1.0, 0.0])]
    for Q in mixes:
        put("mix", *Q.flat_kernels, *(Q.node_probabilities(t) for t in range(T + 1)))

    for _ in range(3):
        st = OneStepStructure(lat, menus(lat, rng))
        put("structure", *st.flat_kernels, *st.flat_penalties, *st.sizes)

    for s in range(T + 1):
        for t in range(s, T + 1):
            comps = tuple((Q, RandomVariable(lat, s, a, allow_infinite=True)) for Q, a in zip(
                (members[0], members[1], mixes[0]),
                (np.zeros(lat.n_nodes(s)), rng.uniform(0.0, 1.0, lat.n_nodes(s)),
                 np.where(rng.random(lat.n_nodes(s)) < 0.5, np.inf, 0.25))))
            rep = DualRep(s, t, comps)
            put("dualrep", *rep.kernels, rep.penalties)
    return {name: h.hexdigest()[:16] for name, h in out.items()}


CASES = [f"b{b}" for b in (1, 2, 3, 4, 5, 6, 7, 8, 10)] + ["ragged"]

# recorded when every builder still checked and normalized kernel by kernel
GOLDEN = {
    "b1": {
        "lattice": "78f5f6c5db1c3645",
        "measure": "35bcfe1256e32004",
        "mix": "9dad752d1646c16c",
        "structure": "10481ced306a148f",
        "dualrep": "5af025eb83140dd9",
    },
    "b2": {
        "lattice": "e3ced844722a7ac9",
        "measure": "8f6ee040f3277be4",
        "mix": "75eb2dca3fb69eb3",
        "structure": "fb3c8ae41c0d11d8",
        "dualrep": "8dd2ba065da7f7c6",
    },
    "b3": {
        "lattice": "8f8f75265c28b230",
        "measure": "5b05e1a17403640e",
        "mix": "0006840fe04eda52",
        "structure": "bde340846e6e0a2d",
        "dualrep": "4ad70dc8f85e7ab7",
    },
    "b4": {
        "lattice": "d8d876968f3ee595",
        "measure": "7d2f7d98fd37ce5e",
        "mix": "10a41d6c91239c97",
        "structure": "60e839b748102328",
        "dualrep": "c32f9ee5d6b3cb8d",
    },
    "b5": {
        "lattice": "bdf079ad7373dac7",
        "measure": "4623b755e3dca548",
        "mix": "bb5ed79cc0e0fd9c",
        "structure": "bbb2ca2546f53f01",
        "dualrep": "ee3b03ae4e361103",
    },
    "b6": {
        "lattice": "846ed88e5b42b0aa",
        "measure": "2f378718b474e500",
        "mix": "db6692ffcbebfc98",
        "structure": "c88a0c3232dcc1ae",
        "dualrep": "ea1de71a392054c1",
    },
    "b7": {
        "lattice": "e82f33c15a5d4eff",
        "measure": "40ee11c6bc35a809",
        "mix": "f4d93afd2b5b78d6",
        "structure": "a9b36f9ad364b373",
        "dualrep": "ae2d5b91c58b0518",
    },
    "b8": {
        "lattice": "346e0d1464538bb3",
        "measure": "182b143bc746e397",
        "mix": "9b1862bb3f2ed933",
        "structure": "d4e466024445b478",
        "dualrep": "298e88c8911bb722",
    },
    "b10": {
        "lattice": "a905264dfa01ffb1",
        "measure": "6fa1ee66b2e2c2a6",
        "mix": "34987decb762bf0d",
        "structure": "dcca29c95ac2b781",
        "dualrep": "7cda5bdbc7e9b948",
    },
    "ragged": {
        "lattice": "f09e9546365ce21d",
        "measure": "b1b98363451ed87d",
        "mix": "f7c0f1fcab1c7424",
        "structure": "22664cb05dbe63ff",
        "dualrep": "c1dc0cf1b7b48a52",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_builders_match_their_golden_digests(case):
    assert digests(case, CASES.index(case)) == GOLDEN[case]


def ragged_lattice():
    """Node (1, 0) has 2 children and node (1, 1) has 3."""
    return build_lattice((0.0, 1.0, 2.0), [[[1.0, -1.0]], [[1.0, -1.0], [1.0, 0.0, -1.0]]],
                         dimension=1)


ROOT = np.array([0.5, 0.5])


@pytest.mark.parametrize("level, message", [
    ((np.full(3, 1 / 3), np.full(2, 0.5)),
     r"kernel at node \(1,0\) needs 2 weights, got shape \(3,\)"),
    ((np.full((1, 2), 0.5), np.full(3, 1 / 3)),
     r"kernel at node \(1,0\) needs 2 weights, got shape \(1, 2\)"),
    ((np.full(2, 0.5), 1.0), r"kernel at node \(1,1\) needs 3 weights, got shape \(\)"),
], ids=["lengths-swapped", "row-kernel", "scalar-kernel"])
def test_a_kernel_that_does_not_fit_its_node_is_named(level, message):
    # each joins or measures right as a whole level, so the whole-level
    # check hands over to the per-kernel path, which names the node
    lat = ragged_lattice()
    with pytest.raises(ValueError, match=message):
        Measure(lat, ((ROOT,), level))
    menu = tuple(((w, 0.0),) for w in level)
    with pytest.raises(ValueError, match=message):
        OneStepStructure(lat, ((((ROOT, 0.0),),), menu))


def test_list_kernels_build_as_arrays_do():
    lat = ragged_lattice()
    arrays = ((ROOT,), (np.array([0.3, 0.7]), np.array([0.2, 0.3, 0.5])))
    lists = tuple(tuple(w.tolist() for w in level) for level in arrays)
    a, b = Measure(lat, arrays), Measure(lat, lists)
    assert a._kernel_buffer.tobytes() == b._kernel_buffer.tobytes()
    a, b = (OneStepStructure(lat, tuple(tuple(((w, 0.0), (w[::-1], 0.1)) for w in level)
                                        for level in kernels)) for kernels in (arrays, lists))
    assert all(p.tobytes() == q.tobytes() for p, q in zip(a.flat_kernels, b.flat_kernels))


def penalty_lp_inputs(rng, T, b, s, n_comp):
    """A penalty-lp-shaped job: (b, 1) increment blocks, Dirichlet kernels,
    members at random penalties, a mixture and menus of one or two choices."""
    sizes = [b ** k for k in range(T + 1)]
    lat = build_lattice(np.arange(T + 1) / T, [[rng.normal(size=(b, 1)) for _ in range(n)]
                                                for n in sizes[:-1]])

    def levels(flat):
        out, at = [], 0
        for n in sizes[:-1]:
            out.append(tuple(flat[at:at + n]))
            at += n
        return tuple(out)

    n_inner = sum(sizes[:-1])
    members = [Measure(lat, levels([rng.dirichlet(np.ones(b)) for _ in range(n_inner)]))
               for _ in range(n_comp)]
    comps = tuple((Q, RandomVariable(lat, s, rng.uniform(0.0, 1.0, sizes[s]) * (i > 0),
                                     allow_infinite=True)) for i, Q in enumerate(members))
    rep = DualRep(s, T, comps)
    mix = mix_measures(members, rng.dirichlet(np.ones(n_comp)))
    menus = [tuple((rng.dirichlet(np.ones(b)), float(rng.uniform(0.0, 0.5)))
                   for _ in range(1 + i % 2)) for i in range(n_inner)]
    st = OneStepStructure(lat, levels(menus))
    reps = [expand_dual(st, r, t) for r, t in ((0, T), (0, 1), (1, T))]
    minimal_penalty(rep, mix)
    rm_evaluate(rep, RandomVariable(lat, T, rng.normal(size=sizes[T])))
    return lat, rep, mix, st, reps


def test_well_formed_inputs_never_take_the_per_kernel_path(monkeypatch):
    # the node-by-node paths only name faults: with each made to raise, every
    # fixture builder and penalty-lp-shaped input still builds
    def named(*args):
        raise AssertionError("a well-formed input took the per-kernel path")

    for module, name in ((measures, "_kernel_rows"), (lattice, "_node_blocks")):
        monkeypatch.setattr(module, name, named)
    rng = np.random.default_rng(5)
    lat, q1, q2, family = fixtures.fix_a_family(p=2.0)
    reference_measure(family)
    rectangular_hull([q1, q2])
    fixtures.trinomial_tree(0.1, 3)
    for _ in range(5):
        lat = fixtures.random_lattice(rng, max_periods=3, max_branch=4)
        fixtures.random_family(lat, rng, 3)
        random_measure(lat, rng)
    for T in (2, 3):
        for b in (2, 3):
            for s in range(T):
                for n_comp in (2, 4):
                    penalty_lp_inputs(rng, T, b, s, n_comp)
    # and a malformed input does reach each of them
    for build in (lambda: Measure(ragged_lattice(), ((ROOT,), (ROOT, ROOT))),
                  lambda: build_lattice((0.0, 1.0), [[np.ones((2, 2))]], dimension=1)):
        with pytest.raises(AssertionError, match="per-kernel path"):
            build()


def levels_of(Q):
    """Q's kernels as ``Measure`` takes them: per time index, one per node."""
    lat = Q.lattice
    return [list(lat.per_node(k, Q.flat_kernels[k])) for k in range(lat.terminal)]


def hull_digests(case, seed):
    rng = np.random.default_rng(seed)
    lat = case_lattice(case, rng)
    T = lat.terminal
    out = {name: hashlib.sha256() for name in ("hull", "stable")}

    def put(name, *arrays):
        for a in arrays:
            out[name].update(np.ascontiguousarray(a).tobytes())

    def build(levels):
        return Measure(lat, tuple(tuple(level) for level in levels))

    # base leaves nodes null; near is base within 1e-12 at every node; late
    # differs from base only at time index T - 1, so the levels' longest menus
    # differ; two differs from base at the first and last non-terminal nodes
    base = build(kernel_levels(lat, rng, sparse=True))
    near = build([[w * (1.0 + 2e-13 * rng.uniform(-1.0, 1.0, w.size)) for w in level]
                  for level in levels_of(base)])
    late = build(levels_of(base)[:-1] + [kernel_levels(lat, rng, sparse=True)[-1]])
    levels = levels_of(base)
    for k, i in ((0, 0), (T - 1, lat.n_nodes(T - 1) - 1)):
        levels[k][i] = rng.dirichlet(np.ones(len(levels[k][i])))
    two = build(levels)
    dense = [build(kernel_levels(lat, rng, sparse=False)) for _ in range(2)]
    for members in ([base], [near, base], [base, near, late], [base, near, late, *dense],
                    [dense[0], base, dense[1], late, near], [base, two], [two, late, base]):
        hull = rectangular_hull(members)
        put("hull", *hull.flat_kernels, *hull.flat_penalties, *hull.sizes)

    selections = enumerate_selections(rectangular_hull([base, near, two]))
    for family in ([base, near, late, *dense], [base, late], [late, two, base], selections,
                   selections[:-1], selections[1:], [base, near]):
        verdict, witness = is_stable(family)
        put("stable", np.array([verdict]))
        if witness is not None:
            put("stable", *witness.flat_kernels)
    return {name: h.hexdigest()[:16] for name, h in out.items()}


# recorded when rectangular_hull and is_stable still built their menus level by level
HULL_GOLDEN = {
    "b1": {"hull": "942a72ed2e48712a", "stable": "c36336f242c655c5"},
    "b2": {"hull": "046618c28cf9c6b8", "stable": "124fb321385bdb87"},
    "b3": {"hull": "418915d0078a28c0", "stable": "7dbe4e527a2ffc12"},
    "b4": {"hull": "3fc18b09b2af5142", "stable": "eab9f1bb6aa1f046"},
    "b5": {"hull": "367899aa09531a1e", "stable": "44ee7df36f388781"},
    "b6": {"hull": "387d47139136622b", "stable": "ce8070ce8fddbc76"},
    "b7": {"hull": "554afdacfd7bbeed", "stable": "3480f4643e4fbe39"},
    "b8": {"hull": "d929b59ddaec1a94", "stable": "9c7dac3ffb47974c"},
    "b10": {"hull": "02859d6aafd3ceff", "stable": "e15ffdbe09a93033"},
    "ragged": {"hull": "12952fa462577dac", "stable": "d0df62637aeb9c97"},
}


@pytest.mark.parametrize("case", CASES)
def test_hulls_and_stability_verdicts_match_their_golden_digests(case):
    assert hull_digests(case, CASES.index(case)) == HULL_GOLDEN[case]
