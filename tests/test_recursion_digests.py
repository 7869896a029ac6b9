"""Golden digests of the tree recursions.

Every output of ``conditional_expectation``, ``rho``, ``robust_evaluate``,
``supermartingale_check``, ``rm_evaluate``, ``expand_dual`` and
``minimal_penalty`` on seeded inputs is hashed bit for bit, so a faster
recursion must reproduce the recorded bits, not only come close to them.
The inputs cover fan-outs 1-8 (strided per-parent sums), a fan-out of 10
and ragged levels (``reduceat``), batched values, zero-penalty, penalised
and +inf-penalty menus, and infinite inputs, which take the guarded rerun
of ``lattice._backward``.  ``minimal_penalty`` is hashed rounded to 1e-10:
its node problems go through LAPACK, whose last bits vary between builds.
"""

import hashlib

import numpy as np
import pytest

from riskdesk.dynamics import OneStepStructure, expand_dual, supermartingale_check
from riskdesk.fixtures import random_measure
from riskdesk.lattice import RandomVariable, build_lattice, uniform_tree
from riskdesk.measures import Measure, conditional_expectation
from riskdesk.risk import DualRep, minimal_penalty, rm_evaluate
from riskdesk.stability import rectangular_hull, robust_evaluate

_MAX_SELECTIONS = 64  # the largest expansion digested


def sparse_kernel(rng, b):
    """Random kernel on b children with some zero weights, never all zero."""
    w = rng.dirichlet(np.ones(b))
    w[rng.random(b) < 0.4] = 0.0
    if not w.any():
        w[rng.integers(b)] = 1.0
    return w / w.sum()


def case_lattice(case, rng):
    if case == "ragged":  # 1 to 10 children per node
        incs, n = [], 1
        for _ in range(3):
            incs.append([rng.normal(size=(int(rng.integers(1, 11)), 1)) for _ in range(n)])
            n = sum(len(inc) for inc in incs[-1])
        return build_lattice((0.0, 1.0, 2.0, 3.0), incs, dimension=1)
    b = int(case[1:])
    depth = 3 if b <= 4 else 2
    return uniform_tree(np.arange(depth + 1.0), np.linspace(1.0, -1.0, b))


def menus(lat, rng, kind):
    """Per node 1-3 choices; choice 0 is free, the others cost uniform(0, 0.5)
    or, with kind "inf", +inf for about one in three."""
    levels = []
    for k in range(lat.terminal):
        level = []
        for b in np.diff(lat.offsets[k]):
            menu = [(sparse_kernel(rng, b), 0.0)]
            for _ in range(int(rng.integers(0, 3))):
                a = float(rng.uniform(0.0, 0.5))
                if kind == "inf" and rng.random() < 0.35:
                    a = np.inf
                menu.append((sparse_kernel(rng, b), a))
            level.append(tuple(menu))
        levels.append(tuple(level))
    return OneStepStructure(lat, tuple(levels))


def choice_zero(st):
    lat = st.lattice
    return Measure(lat, tuple(lat.per_node(k, w[0]) for k, w in enumerate(st.flat_kernels)))


def with_infinities(rng, values, sign=1.0):
    """About a fifth of the values set to ``sign`` * inf: one sign, so no
    inf - inf, and for a recursion's input -X, none against a +inf penalty."""
    v = values.copy()
    v[rng.random(v.size) < 0.2] = sign * np.inf
    return v


def digests(case, seed):
    rng = np.random.default_rng(seed)
    lat = case_lattice(case, rng)
    T = lat.terminal
    members = [random_measure(lat, rng) for _ in range(3)]
    sparse = Measure(lat, tuple(tuple(sparse_kernel(rng, b) for b in np.diff(lat.offsets[k]))
                                for k in range(T)))
    structures = {"hull": rectangular_hull(members), "penalised": menus(lat, rng, "penalised"),
                  "inf": menus(lat, rng, "inf")}
    positions = {t: rng.normal(size=lat.n_nodes(t)) for t in range(T + 1)}
    out = {name: hashlib.sha256() for name in
           ("conditional_expectation", "rho", "robust_evaluate", "supermartingale_check",
            "rm_evaluate", "expand_dual", "minimal_penalty")}

    def put(name, a):
        out[name].update(np.ascontiguousarray(a, dtype=float).tobytes())

    for t, x in positions.items():
        X = RandomVariable(lat, t, x)
        X_inf = RandomVariable(lat, t, with_infinities(rng, x), allow_infinite=True)
        for s in range(t + 1):
            for Q in (*members, sparse):
                put("conditional_expectation", conditional_expectation(X, Q, s).values)
            put("conditional_expectation", conditional_expectation(X_inf, sparse, s).values)
            for st in structures.values():
                put("rho", st.rho(s, t, X).values)
                put("rho", st._rho(s, t, -X_inf.values))
            put("robust_evaluate", robust_evaluate(structures["hull"], X, s).values)
    # batched values, finite and infinite
    batch = rng.normal(size=(2, 3, lat.n_nodes(T)))
    batch[1, 2] = with_infinities(rng, batch[1, 2], -1.0)
    for st in structures.values():
        for s in range(T + 1):
            put("rho", st._rho(s, T, batch))
    for name, st in structures.items():
        P = members[0] if name == "hull" else choice_zero(st)
        for t in (T, T - 1):
            X = RandomVariable(lat, t, positions[t])
            for grid in (None, [0, t], list(range(1, t + 1)), [t]):
                put("supermartingale_check", supermartingale_check(st, X, P, grid))
        for t in range(T + 1):
            for r in range(t + 1):
                try:
                    rep = expand_dual(st, r, t, cap=_MAX_SELECTIONS)
                except ValueError:
                    continue
                for a in (*rep.kernels, rep.penalties):
                    put("expand_dual", a)
                put("rm_evaluate", rm_evaluate(rep, RandomVariable(lat, t, positions[t])).values)
                for Q in (P, members[1]):
                    alpha = minimal_penalty(rep, Q).values
                    put("minimal_penalty", np.round(alpha, 10) + 0.0)
    # a representation with a +inf penalty component
    pens = [np.zeros(lat.n_nodes(0)), np.full(lat.n_nodes(0), np.inf),
            rng.uniform(0.0, 1.0, lat.n_nodes(0))]
    rep = DualRep(0, T, tuple((Q, RandomVariable(lat, 0, a, allow_infinite=True))
                              for Q, a in zip((members[0], sparse, members[2]), pens)))
    for x in rng.normal(size=(3, lat.n_nodes(T))):
        put("rm_evaluate", rm_evaluate(rep, RandomVariable(lat, T, x)).values)
    for Q in (*members, sparse):
        put("minimal_penalty", np.round(minimal_penalty(rep, Q).values, 10) + 0.0)
    return {name: h.hexdigest()[:16] for name, h in out.items()}


CASES = [f"b{b}" for b in (1, 2, 3, 4, 5, 6, 7, 8, 10)] + ["ragged"]

# recorded before the recursions were trimmed to numpy's call floor
GOLDEN = {
    "b1": {
        "conditional_expectation": "bd15f553b05a1cfb",
        "rho": "f1b7d33f3d0db991",
        "robust_evaluate": "08db5c7b301ad4d6",
        "supermartingale_check": "78086b29274e559e",
        "rm_evaluate": "530836120de82dd6",
        "expand_dual": "a1b88ce43b92f89d",
        "minimal_penalty": "076a27c79e5ace2a",
    },
    "b2": {
        "conditional_expectation": "cb23af6400e33624",
        "rho": "75992181ae05bea9",
        "robust_evaluate": "eb69ab37a6ab1da2",
        "supermartingale_check": "2a5f4b8e96f9900d",
        "rm_evaluate": "e68e0a3a14b38a44",
        "expand_dual": "1d78dbdfdd122427",
        "minimal_penalty": "218c90f06bca3360",
    },
    "b3": {
        "conditional_expectation": "7e3e783cc8d3a302",
        "rho": "eb5947f52fc66ec9",
        "robust_evaluate": "565d87fd253467da",
        "supermartingale_check": "b8026a3d048d3e21",
        "rm_evaluate": "17e4440adf9dff43",
        "expand_dual": "58048731f5f6b978",
        "minimal_penalty": "b26a08affcef814b",
    },
    "b4": {
        "conditional_expectation": "e511e75d70475890",
        "rho": "63a634b77f280d8a",
        "robust_evaluate": "681b4fa63106b327",
        "supermartingale_check": "a0828e8e3937323f",
        "rm_evaluate": "7a1853eb6b666071",
        "expand_dual": "ee0176e9f5f959b6",
        "minimal_penalty": "3862b92c5e025e05",
    },
    "b5": {
        "conditional_expectation": "e9b746f6d17cbb81",
        "rho": "a51f8ef012f49c2d",
        "robust_evaluate": "4f3c6b07a934a726",
        "supermartingale_check": "e7a81af1ebf8ff74",
        "rm_evaluate": "276e005fbebff41d",
        "expand_dual": "e0bcfef573fec33e",
        "minimal_penalty": "039bab49b22c9b0c",
    },
    "b6": {
        "conditional_expectation": "a8e704c888bab000",
        "rho": "1506dae0e4ea9219",
        "robust_evaluate": "567239cf19b62121",
        "supermartingale_check": "7011a191cf0d13e0",
        "rm_evaluate": "e7be412da36ff1b7",
        "expand_dual": "112c1bd8a036ee3e",
        "minimal_penalty": "d837a6aec1136459",
    },
    "b7": {
        "conditional_expectation": "f8cd3bef52483f03",
        "rho": "461cb98140bf591f",
        "robust_evaluate": "61bc4c0cff6a428b",
        "supermartingale_check": "e68560d7e8695dfa",
        "rm_evaluate": "c4a21e76039085f4",
        "expand_dual": "5ac637bcb2847268",
        "minimal_penalty": "d694f7fab7d9e5d6",
    },
    "b8": {
        "conditional_expectation": "0a2efc6bafbc987f",
        "rho": "d1aaeb5052196ca3",
        "robust_evaluate": "d9fa5235e359167c",
        "supermartingale_check": "6f1a252b707ce90c",
        "rm_evaluate": "fb08144a44e2f3c3",
        "expand_dual": "71c0a2aaa44eccb8",
        "minimal_penalty": "e9ba5d9d8690f098",
    },
    "b10": {
        "conditional_expectation": "6c4f11a9c8717a5c",
        "rho": "220e7ee9b32b54a4",
        "robust_evaluate": "bb4b8e9996fcf14f",
        "supermartingale_check": "02e1843d98030b76",
        "rm_evaluate": "5ad183371911bf86",
        "expand_dual": "0411e3689d3abeca",
        "minimal_penalty": "f075eca55b14ecda",
    },
    "ragged": {
        "conditional_expectation": "20032830a3aac608",
        "rho": "094f01df60a7d80e",
        "robust_evaluate": "a347b4cc90c2a826",
        "supermartingale_check": "a62b6b86e681e8fa",
        "rm_evaluate": "ddae45a53e03764c",
        "expand_dual": "feb307f4f35d44d8",
        "minimal_penalty": "e774a2340aa52eca",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_tree_recursions_match_their_golden_digests(case):
    assert digests(case, CASES.index(case)) == GOLDEN[case]
